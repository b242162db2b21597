import inspect
import io
import sys
from contextlib import redirect_stdout
from decimal import Decimal
from functools import partial
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbonacci import (
    bounded_tiles,
    compute_sum,
    compute_value,
    exact_tiles,
    expand_marks,
    identity_report,
    kbonacci_prefix,
    oversized_members,
    partial_sum_dunkel_extended,
)
from kbonacci import engines, matrix_power
from kbonacci.cli import main
from kbonacci.engines import (
    _SUM_DISPATCH,
    _VALUE_DISPATCH,
    SUM_NAMES,
    VALUE_NAMES,
    _continued,
    stream_sums,
    stream_values,
)
from kbonacci.render import _decimals, _texts, exact
from kbonacci.sequence import sums_from, values_from

from oracles import naive_prefix


def test_value_engines_agree():
    for engine in VALUE_NAMES:
        assert compute_value(5, 30, engine) == compute_value(5, 30)


def test_sum_engines_agree():
    for engine in SUM_NAMES:
        assert compute_sum(5, 30, engine) == compute_sum(5, 30)


def test_sum_only_engine_rejected_for_values():
    with pytest.raises(ValueError):
        compute_value(2, 4, "dunkel")


def test_value_only_engine_rejected_for_sums():
    with pytest.raises(ValueError):
        compute_sum(2, 4, "dunkel-term")
    # the raised summation limit is an identity, not an engine
    registered = r"'dunkel-extended' is not one of \['direct', 'dunkel', 'matrix'\]"
    with pytest.raises(ValueError, match=registered):
        compute_sum(2, 10, "dunkel-extended")


@pytest.mark.parametrize(
    "stream",
    [*_VALUE_DISPATCH.values(), *_SUM_DISPATCH.values()],
    ids=[*(f"value-{e}" for e in _VALUE_DISPATCH), *(f"sum-{e}" for e in _SUM_DISPATCH)],
)
def test_every_engine_is_a_range_with_a_cost(stream):
    # the one contract the registry's readers rely on
    inspect.signature(stream).bind(2, 5, 9)
    inspect.signature(stream).bind(2, 5, 9, text=True)
    inspect.signature(stream.cost).bind(2, 5)
    # a model is arithmetic on (k, n): it answers at the far end of the domain too
    for k, n in [(1, 0), (1, 40), (2, 0), (2, 10), (5, 300), (12, 7), (sys.maxsize, sys.maxsize)]:
        cost = stream.cost(k, n)
        assert type(cost) is int and cost >= 0, (k, n, cost)


def test_value_engines_read_negative_indices_as_zero():
    for engine in VALUE_NAMES:
        assert compute_value(3, -4, engine) == 0
        assert list(stream_values(3, -2, 3, engine)) == [0, 0, 1, 1, 2]
        assert list(stream_values(3, -4, -1, engine)) == [0, 0, 0]
        with pytest.raises(ValueError, match="k must be"):
            compute_value(0, -1, engine)
    for engine in SUM_NAMES:
        with pytest.raises(ValueError, match="n must be non-negative"):
            compute_sum(3, -1, engine)
    # the index given, not the stop n + 1 of its range, is what is reported
    too_large = f"n must be below sys.maxsize = {sys.maxsize}, got {sys.maxsize}$"
    for engine in VALUE_NAMES:
        with pytest.raises(ValueError, match=too_large):
            compute_value(3, sys.maxsize, engine)
    for engine in SUM_NAMES:
        with pytest.raises(ValueError, match=too_large):
            compute_sum(3, sys.maxsize, engine)


def _extended(k, n):
    return partial_sum_dunkel_extended(k, n, 2)


def _extended_limit(k, n):
    # n doubles as the limit m: the int cell (2, 10, m=5) is legal, and a
    # bool n reaches the formula only as m, since 2 * True is an int
    return partial_sum_dunkel_extended(k, 2 * n, n)


def _identity(k, n):
    # members of a fixed valid cell: the check must come from identity_report
    return identity_report(k, n, 1, oversized_members(2, 5))


def _expand(k, n):
    # n = 5 leaves a reduced ruler of 3 for the dashed mark at 1
    return expand_marks(k, n, (1,))


def _value_stops(k, n):
    # n doubles as the stop of a range from 0 on every value engine
    for engine in VALUE_NAMES:
        list(stream_values(k, 0, n, engine))


def _sum_stops(k, n):
    for engine in SUM_NAMES:
        list(stream_sums(k, 0, n, engine))


def _identity_index(k, n):
    # n doubles as the index i: the int cell (2, 15, i=5) is legal, and a
    # bool n reaches the check only as i, since 3 * True is an int
    return identity_report(k, 3 * n, n, oversized_members(2, 15))


@pytest.mark.parametrize(
    "fn",
    [
        *(pytest.param(partial(compute_value, engine=e), id=f"compute_value-{e}") for e in VALUE_NAMES),
        *(pytest.param(partial(compute_sum, engine=e), id=f"compute_sum-{e}") for e in SUM_NAMES),
        kbonacci_prefix,
        _extended,
        exact_tiles,
        bounded_tiles,
        oversized_members,
        _extended_limit,
        _identity,
        _expand,
        _identity_index,
        _value_stops,
        _sum_stops,
    ],
)
@pytest.mark.parametrize("k, n", [(True, 5), (2, True), (2.0, 5), (2, 5.0), ("2", 5), (2, None)])
def test_non_int_arguments_raise_type_error(fn, k, n):
    fn(2, 5)  # the same cell with ints is valid for every function
    with pytest.raises(TypeError):
        fn(k, n)


# the baseline walks, and every registered stream as ints and as text
RANGE_GENERATORS = [
    values_from,
    sums_from,
    *(
        pytest.param(partial(stream, text=text), id=f"{quantity}-{engine}{'-text' * text}")
        for quantity, table in (("value", _VALUE_DISPATCH), ("sum", _SUM_DISPATCH))
        for engine, stream in table.items()
        for text in (False, True)
    ),
]


@pytest.mark.parametrize("stream", RANGE_GENERATORS)
@pytest.mark.parametrize("stop, error", [(10**30, ValueError), (2.5, TypeError), (True, TypeError)])
def test_range_generators_check_their_stop(stream, stop, error):
    # the check the registry makes, before the first value; an int stop is valid
    assert next(stream(2, 0, 3)) in (1, "1")
    with pytest.raises(error, match="stop must"):
        next(stream(2, 0, stop))


@pytest.mark.parametrize("stream", RANGE_GENERATORS)
def test_range_generators_reject_a_negative_start(stream):
    # only the registry reads n < 0 as f(n) = 0; no engine module does
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        next(stream(2, -1, 3))


# (range, engine names) of each quantity
QUANTITIES = [(stream_values, VALUE_NAMES), (stream_sums, SUM_NAMES)]


# None keeps the real switch; a lower one sends the residue through Decimal
# squarings before a range steps it
@pytest.mark.parametrize("switch", [None, 0, 8, 64])
@settings(max_examples=40, deadline=None)
@example(k_count=(1, 1), start=0)
@example(k_count=(1, 2), start=0)
@example(k_count=(5, 5), start=40)
@example(k_count=(5, 6), start=40)
@example(k_count=(5, 6), start=1)
@example(k_count=(12, 38), start=-3)
# across the k+1 boundary where matrix's powers of two meet its residue
@example(k_count=(5, 7), start=1)
@example(k_count=(5, 11), start=1)
@example(k_count=(30, 2), start=20000)
@given(
    k_count=st.integers(1, 12).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 3 * k + 2))),
    start=st.integers(-20, 300),
)
def test_text_ranges_print_the_int_ranges(switch, k_count, start):
    # counts on both sides of k, from one index, which renders its int, to
    # ranges that step in Decimal after their first record
    k, count = k_count
    bits = matrix_power._DECIMAL_BITS if switch is None else switch
    with mock.patch.object(matrix_power, "_DECIMAL_BITS", bits):
        for stream, names in QUANTITIES:
            # only value engines read n < 0, as f(n) = 0
            first = start if stream is stream_values else max(start, 0)
            for engine in names:
                expected = list(_texts(_decimals(stream(k, first, first + count, engine))))
                texts = stream(k, first, first + count, engine, text=True)
                assert list(texts) == expected, (engine, k, first, count)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
@pytest.mark.parametrize("start", [0, 1, 40, 300])
def test_a_text_range_converts_each_head_value_once(conversions, k, start):
    for stream, names in QUANTITIES:
        for engine in names:
            for count in (1, 2, k, k + 1, k + 2, 3 * k + 2):
                conversions.clear()
                expected = list(stream(k, start, start + count, engine))
                assert conversions == [], (engine, k, start, count)
                # the first min(count, k) values, once each, whether or
                # not the range steps past them, and in Decimal from there
                texts = stream(k, start, start + count, engine, text=True)
                assert list(texts) == list(map(str, expected))
                assert conversions == expected[:k], (engine, k, start, count)


@pytest.mark.parametrize(
    "stream, k, start, count, engine",
    [
        (stream_sums, 3, 6000, 56, "dunkel"),
        (stream_sums, 5, 6000, 48, "matrix"),
        (stream_values, 2, 5000, 40, "recurrence"),
    ],
)
def test_a_stepping_range_converts_k_values(conversions, stream, k, start, count, engine):
    # its first value once, not a second time when the range steps, and
    # index start+k, the sum of the k before it, not at all
    list(stream(k, start, start + count, engine, text=True))
    assert len(conversions) == k


def test_a_head_value_already_in_decimal_is_not_converted(conversions, monkeypatch):
    # past the switch the residue's k coefficients are converted once, and
    # the head's values, finished in Decimal, not at all
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
    for stream, _ in QUANTITIES:
        conversions.clear()
        assert list(stream(3, 300, 340, "matrix", text=True)) == list(map(str, stream(3, 300, 340, "matrix")))
        assert len(conversions) == 3
        assert not set(conversions) & set(stream(3, 300, 304, "matrix"))


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--k", "3", "--n", "5000", "--engine", "recurrence"),
        ("eval", "--k", "3", "--n", "5000", "--engine", "matrix"),
        ("sum", "--k", "5", "--n", "6000", "--engine", "direct"),
        ("sum", "--k", "5", "--n", "6000", "--engine", "matrix"),
        ("bench", "--k", "3", "--n", "5000", "--reps", "2"),
        ("bench", "--k", "5", "--n", "6000", "--engines", "direct,dunkel,matrix", "--reps", "2"),
    ],
)
def test_a_single_index_converts_its_value_once(conversions, argv):
    # once per engine call: eval and sum make one, bench one per rep
    with redirect_stdout(io.StringIO()) as stdout:
        assert main(list(argv)) == 0
    printed = [line.rpartition("value=")[2] for line in stdout.getvalue().splitlines()]
    calls = int(argv[-1]) if argv[0] == "bench" else 1
    assert list(map(str, conversions)) == [text for text in printed for _ in range(calls)]


class _Head:
    """An engine's head that counts the terms pulled from it."""

    def __init__(self, terms):
        self.terms = iter(terms)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        term = next(self.terms)
        self.pulled += 1
        return term


def _oracle(k, total, sums):
    terms = naive_prefix(k, total)
    return list(accumulate(terms)) if sums else terms


@pytest.mark.parametrize("text", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_continued_pulls_at_most_k_head_terms(k, text):
    for count in range(3 * k + 3):
        head = _Head(naive_prefix(k, 4 * k + 4))
        with exact():
            assert len(list(_continued(_decimals(head) if text else head, k, count, 0))) == count
        assert head.pulled == min(count, k), (k, count)


def test_continued_pulls_nothing_for_no_terms():
    head = _Head([1, 1, 2])
    assert list(_continued(_decimals(head), 2, 0, 0)) == []
    assert head.pulled == 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_continued_converts_each_head_term_once(conversions, k):
    for count in range(1, 3 * k + 3):
        conversions.clear()
        with exact():
            out = list(_continued(_decimals(iter(naive_prefix(k, 4 * k))), k, count, 0))
        # the head's first min(count, k) terms, whether or not the range
        # steps past them, and every term printed from Decimal
        assert conversions == naive_prefix(k, min(count, k) - 1), (k, count)
        assert all(type(t) is Decimal for t in out)
        assert out == naive_prefix(k, count - 1)
        conversions.clear()
        assert list(_continued(iter(naive_prefix(k, 4 * k)), k, count, 0)) == naive_prefix(k, count - 1)
        assert conversions == [], (k, count)


def test_continued_leaves_a_decimal_head_as_it_is(conversions):
    k, count = 3, 12
    with exact():
        out = list(_continued(_decimals(map(Decimal, naive_prefix(k, k))), k, count, 0))
    assert conversions == []
    assert all(type(t) is Decimal for t in out)
    assert out == naive_prefix(k, count - 1)


@pytest.mark.parametrize("sums", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_continued_sums_the_head_into_index_start_plus_k(k, sums):
    # S(n) = S(n-1) + ... + S(n-k) + 1 and f(n) = f(n-1) + ... + f(n-k):
    # from a head of exactly k terms, pulled once each, index start+k and
    # the step after it, in the head's type
    for start in (0, 1, k, 40):
        expected = _oracle(k, start + k + 1, sums)[start:]
        for count in (k, k + 1, k + 2):
            for kind in (int, Decimal):
                head = _Head(map(kind, expected[:k]))
                with exact():
                    out = list(_continued(head, k, count, int(sums)))
                assert out == expected[:count], (start, count, kind)
                assert head.pulled == k
                assert {type(t) for t in out} == {kind}


@pytest.mark.parametrize("sums", [False, True])
@pytest.mark.parametrize("k", range(1, 7))
def test_continued_matches_the_oracle(k, sums):
    # S steps from n = 0 and f from n = 1, so every start >= 0 holds
    for start in (0, 1, k - 1, k, k + 1, 2 * k + 3):
        for count in range(3 * k + 3):
            expected = _oracle(k, start + count - 1, sums)[start:]
            head = iter(_oracle(k, start + k - 1, sums)[start:])
            assert list(_continued(head, k, count, int(sums))) == expected, (k, start, count)
            head = iter(_oracle(k, start + k - 1, sums)[start:])
            with exact():
                assert list(_continued(_decimals(head), k, count, int(sums))) == expected, (k, start, count)


@pytest.mark.parametrize("sums", [False, True])
@pytest.mark.parametrize("k", range(1, 10))
def test_every_range_steps_from_a_window_of_k(monkeypatch, k, sums):
    # past its head every engine's range steps from a deque of the k values
    # before index start+k, which holds no more than them
    real = engines._later
    windows = []

    def spy(window, constant):
        windows.append((window.maxlen, len(window)))
        return real(window, constant)

    monkeypatch.setattr(engines, "_later", spy)
    count = 2 * k + 3
    for name, stream in (_SUM_DISPATCH if sums else _VALUE_DISPATCH).items():
        for start in (0, 37):
            expected = _oracle(k, start + count - 1, sums)[start:]
            for text in (False, True):
                windows.clear()
                out = list(stream(k, start, start + count, text))
                assert out == (list(map(str, expected)) if text else expected), (name, start, text)
                assert windows == [(k, k)], (name, start, text)
