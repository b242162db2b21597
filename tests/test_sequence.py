from decimal import Decimal
from functools import partial
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import compute_sum, compute_value, kbonacci_prefix, values
from kbonacci.render import exact
from kbonacci.sequence import _continued

from oracles import naive_partial_sum, naive_prefix, naive_value

recurrence = partial(compute_value, engine="recurrence")
direct = partial(compute_sum, engine="direct")


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (2, 4, 5),
        (4, 4, 8),
        (3, -2, 0),
        (1, 17, 1),
        (1, 0, 1),
        (5, -1, 0),
    ],
)
def test_recurrence_examples(k, n, expected):
    assert recurrence(k, n) == expected


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (2, 4, [1, 1, 2, 3, 5]),
        (3, 7, [1, 1, 2, 4, 7, 13, 24, 44]),
        (5, 0, [1]),
    ],
)
def test_prefix_examples(k, n, expected):
    assert kbonacci_prefix(k, n) == expected


@pytest.mark.parametrize("k, n, expected", [(2, 4, 12), (3, 7, 96), (9, 0, 1)])
def test_partial_sum_examples(k, n, expected):
    assert direct(k, n) == expected


def test_prefix_matches_naive_definition():
    for k in range(1, 7):
        assert kbonacci_prefix(k, 40) == naive_prefix(k, 40)


def test_partial_sum_matches_naive():
    for k in range(1, 6):
        for n in range(0, 25):
            assert direct(k, n) == naive_partial_sum(k, n)


def test_prefix_elements_equal_single_evaluations():
    for k in range(1, 7):
        prefix = kbonacci_prefix(k, 40)
        for i in (0, 1, 2, 7, 39, 40):
            assert prefix[i] == recurrence(k, i)


def test_early_terms_double_while_window_reaches_zero():
    # f(n) = 2^(n-1) for 1 <= n <= k
    for k in range(1, 9):
        for n in range(1, k + 1):
            assert recurrence(k, n) == 1 << (n - 1)


def test_monotone_for_k_at_least_two():
    for k in range(2, 6):
        prefix = kbonacci_prefix(k, 40)
        assert all(a <= b for a, b in zip(prefix, prefix[1:]))


@pytest.mark.parametrize("bad_k", [0, -1, -7])
def test_rejects_nonpositive_k(bad_k):
    with pytest.raises(ValueError):
        recurrence(bad_k, 3)
    with pytest.raises(ValueError):
        kbonacci_prefix(bad_k, 3)
    with pytest.raises(ValueError):
        direct(bad_k, 3)


def test_rejects_negative_n_where_sums_are_defined():
    with pytest.raises(ValueError):
        kbonacci_prefix(2, -1)
    with pytest.raises(ValueError):
        direct(2, -1)


def test_values_stream_is_restartable_and_consistent():
    first = list(islice(values(3), 10))
    second = list(islice(values(3), 10))
    assert first == second == kbonacci_prefix(3, 9)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 120))
def test_window_identity_holds(k, n):
    prefix = kbonacci_prefix(k, n)
    window = sum(prefix[n - i] for i in range(1, k + 1) if n - i >= 0)
    assert prefix[n] == window


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(0, 60))
def test_random_cells_match_naive(k, n):
    assert recurrence(k, n) == naive_value(k, n)


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
def test_continued_pulls_at_most_k_plus_1_head_terms(k, text):
    for count in range(3 * k + 3):
        head = _Head(naive_prefix(k, 4 * k + 4))
        with exact():
            assert len(list(_continued(head, k, count, text))) == count
        assert head.pulled == min(count, k + 1), (k, count)


def test_continued_pulls_nothing_for_no_terms():
    head = _Head([1, 1, 2])
    assert list(_continued(head, 2, 0, True)) == []
    assert head.pulled == 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_continued_converts_each_head_term_once(conversions, k):
    for count in range(1, 3 * k + 3):
        conversions.clear()
        with exact():
            out = list(_continued(iter(naive_prefix(k, 4 * k)), k, count, True))
        # the head's first min(count, k+1) terms, whether or not the range
        # steps past them, and every term printed from Decimal
        assert conversions == naive_prefix(k, min(count, k + 1) - 1), (k, count)
        assert all(type(t) is Decimal for t in out)
        assert out == naive_prefix(k, count - 1)
        conversions.clear()
        assert list(_continued(iter(naive_prefix(k, 4 * k)), k, count)) == naive_prefix(k, count - 1)
        assert conversions == [], (k, count)


def test_continued_leaves_a_decimal_head_as_it_is(conversions):
    k, count = 3, 12
    with exact():
        out = list(_continued(map(Decimal, naive_prefix(k, k)), k, count, True))
    assert conversions == []
    assert all(type(t) is Decimal for t in out)
    assert out == naive_prefix(k, count - 1)


@pytest.mark.parametrize("sums", [False, True])
@pytest.mark.parametrize("k", range(1, 7))
def test_continued_matches_the_oracle(k, sums):
    # S steps from n = 0 and f from n = 1, so every start >= 0 holds
    for start in (0, 1, k - 1, k, k + 1, 2 * k + 3):
        for count in range(3 * k + 3):
            expected = _oracle(k, start + count - 1, sums)[start:]
            head = iter(_oracle(k, start + k, sums)[start:])
            assert list(_continued(head, k, count)) == expected, (k, start, count)
            head = iter(_oracle(k, start + k, sums)[start:])
            with exact():
                assert list(_continued(head, k, count, True)) == expected, (k, start, count)
