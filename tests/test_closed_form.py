import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbonacci import (
    SUM_FORMULA,
    TERM_FORMULA,
    SignedTerm,
    binomial,
    compute_sum,
    compute_value,
    partial_sum_dunkel_extended,
    term_breakdown,
)
from kbonacci import closed_form
from kbonacci.engines import _VALUE_DISPATCH, stream_sums, stream_values
from kbonacci.sequence import sums_from, values_from

from oracles import pascal_rows

PASCAL = pascal_rows(80)

dunkel = partial(compute_sum, engine="dunkel")
dunkel_term = partial(compute_value, engine="dunkel-term")
recurrence = partial(compute_value, engine="recurrence")
direct = partial(compute_sum, engine="direct")


class TestBinomial:
    @pytest.mark.parametrize("a, b, expected", [(4, 0, 1), (0, 2, 0), (5, 2, 10)])
    def test_examples(self, a, b, expected):
        assert binomial(a, b) == expected

    def test_matches_pascal_triangle(self):
        for a in range(80):
            for b in range(a + 1):
                assert binomial(a, b) == PASCAL[a][b]

    def test_out_of_range_b_vanishes(self):
        assert binomial(7, -1) == 0
        assert binomial(7, 8) == 0
        assert binomial(0, -3) == 0

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(0, 79), b=st.integers(-5, 85))
    def test_random_against_pascal(self, a, b):
        expected = PASCAL[a][b] if 0 <= b <= a else 0
        assert binomial(a, b) == expected

    def test_block_columns_match_pascal_triangle(self):
        # column j of a block lo..hi-1 holds C(n - jk, j) for each n, 0 where
        # n - jk < j, from column 0 of ones, at every block width a range
        # folds (up to k) and one more
        for k in range(1, 10):
            for lo in range(0, 60):
                for width in range(1, k + 2):
                    hi = lo + width
                    columns = list(closed_form._columns(k, lo, hi))
                    assert columns == [
                        [PASCAL[n - j * k][j] if n - j * k >= j else 0 for n in range(lo, hi)]
                        for j in range((hi - 1) // (k + 1) + 1)
                    ], (k, lo, width)

    def test_incremental_row_matches_direct_evaluation(self):
        from kbonacci.closed_form import _row

        for k in range(1, 7):
            for n in range(-1, 70):  # the per-term base case relies on the empty row of -1
                limit = n // (k + 1)
                assert list(_row(k, n)) == [binomial(n - j * k, j) for j in range(limit + 1)]


class TestDunkelSums:
    @pytest.mark.parametrize("k, n, expected", [(2, 4, 12), (3, 7, 96), (9, 6, 64)])
    def test_examples(self, k, n, expected):
        assert dunkel(k, n) == expected

    def test_equals_direct_sum_on_grid(self):
        for k in range(1, 7):
            for n in range(0, 45):
                assert dunkel(k, n) == direct(k, n)

    def test_base_case_is_power_of_two(self):
        for k in range(1, 11):
            for n in range(0, k + 1):
                assert dunkel(k, n) == 1 << n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dunkel(0, 4)
        with pytest.raises(ValueError):
            dunkel(2, -1)


class TestExtendedLimit:
    @pytest.mark.parametrize(
        "k, n, m, expected",
        [
            (2, 4, 2, 12),
            (2, 4, 1, 12),
            (2, 10, 3, 232),
            (2, 10, 5, 232),  # the largest legal limit, floor(n/k)
            # expected value pinned by the direct-sum oracle: 1+1+1+1
            (1, 3, 3, 4),
        ],
    )
    def test_examples(self, k, n, m, expected):
        assert direct(k, n) == expected  # oracle agrees first
        assert partial_sum_dunkel_extended(k, n, m) == expected

    def test_every_legal_limit_gives_the_same_value(self):
        for k in range(1, 6):
            for n in range(0, 41):
                base = dunkel(k, n)
                for m in range(n // (k + 1), n // k + 1):
                    assert partial_sum_dunkel_extended(k, n, m) == base

    @pytest.mark.parametrize("k, n, m", [(2, 4, 0), (2, 4, 3), (2, 4, 9), (3, 12, 2), (3, 12, 5)])
    def test_out_of_range_limit_rejected(self, k, n, m):
        with pytest.raises(ValueError):
            partial_sum_dunkel_extended(k, n, m)

    def test_nonzero_raised_limit_summand_is_a_defect(self, monkeypatch):
        # The raised-limit binomials vanish for every legal m, so a nonzero one
        # is an internal fault, not a user error.
        monkeypatch.setattr("kbonacci.closed_form.binomial", lambda a, b: 1)
        with pytest.raises(ArithmeticError):
            partial_sum_dunkel_extended(2, 4, 2)


class TestDunkelTerm:
    @pytest.mark.parametrize("k, n, expected", [(2, 4, 5), (3, 0, 1), (4, 4, 8)])
    def test_examples(self, k, n, expected):
        assert dunkel_term(k, n) == expected

    def test_equals_recurrence_on_grid(self):
        for k in range(1, 7):
            for n in range(0, 45):
                assert dunkel_term(k, n) == recurrence(k, n)

    def test_difference_of_partial_sums(self):
        for k in range(1, 6):
            for n in range(1, 35):
                assert dunkel_term(k, n) == dunkel(k, n) - dunkel(k, n - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dunkel_term(0, 3)
        # the engine's stream rejects n < 0; only stream_values reads it as 0
        with pytest.raises(ValueError, match="n must be non-negative"):
            next(_VALUE_DISPATCH["dunkel-term"](3, -1, 0))


class TestTermBreakdown:
    def test_sum_formula_example(self):
        assert term_breakdown(3, 7, SUM_FORMULA) == [
            SignedTerm(0, 1, 128),
            SignedTerm(1, -1, 32),
        ]

    def test_single_term(self):
        assert term_breakdown(2, 0, SUM_FORMULA) == [SignedTerm(0, 1, 1)]

    def test_term_formula_example(self):
        terms = term_breakdown(2, 4, TERM_FORMULA)
        assert [(t.sign, t.magnitude) for t in terms] == [(1, 8), (-1, 3)]
        assert sum(t.value for t in terms) == 5

    def test_folding_reproduces_both_engines(self):
        for k in range(1, 6):
            for n in range(0, 30):
                assert sum(t.value for t in term_breakdown(k, n, SUM_FORMULA)) == (
                    dunkel(k, n)
                )
                assert sum(t.value for t in term_breakdown(k, n, TERM_FORMULA)) == (
                    dunkel_term(k, n)
                )

    def test_terms_match_pascal_rows(self):
        # Independent of the engines' rows: C(a, b) read off an additive triangle.
        def c(a, b):
            return PASCAL[a][b] if 0 <= b <= a else 0

        for k in range(1, 7):
            for n in range(0, 61):
                sum_terms = term_breakdown(k, n, SUM_FORMULA)
                term_terms = term_breakdown(k, n, TERM_FORMULA)
                limit = n // (k + 1)
                assert len(sum_terms) == len(term_terms) == limit + 1
                for j in range(limit + 1):
                    e = n - j * (k + 1)
                    sign = (-1) ** j
                    assert sum_terms[j] == SignedTerm(j, sign, c(n - j * k, j) * 2**e)
                    doubled = (2 * c(n - j * k, j) - c(n - 1 - j * k, j)) * 2**e
                    assert doubled % 2 == 0
                    assert term_terms[j] == SignedTerm(j, sign, doubled // 2)

    def test_term_magnitudes_are_nonnegative_integers(self):
        for k in range(1, 6):
            for n in range(0, 40):
                for t in term_breakdown(k, n, TERM_FORMULA):
                    assert isinstance(t.magnitude, int)
                    assert t.magnitude >= 0
                    assert t.sign == (-1) ** t.j

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValueError):
            term_breakdown(2, 4, "other")


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 7), n=st.integers(0, 80))
def test_sum_identity_random(k, n):
    assert dunkel(k, n) == direct(k, n)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 7), n=st.integers(0, 80))
def test_value_identity_random(k, n):
    assert dunkel_term(k, n) == recurrence(k, n)


@pytest.mark.parametrize("fn", [dunkel_term, dunkel], ids=["dunkel-term", "dunkel"])
def test_single_index_streams_its_row(fn):
    # At k=2, n=12000 the row C(n-2j, j) holds about 2.3 MiB of binomials;
    # one index folds it as it is made and keeps only a few n-bit values.
    tracemalloc.start()
    try:
        fn(2, 12_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 12), start=st.integers(0, 400), length=st.integers(1, 120))
# lengths k (the first index and one block of k-1), k+1 (index start+k as
# the sum of the k before it), k+2 (one step) and 2k+3 (steps past the
# whole window), from starts 0, 1 and k
@example(k=1, start=0, length=1)
@example(k=1, start=1, length=2)
@example(k=1, start=0, length=3)  # f(2) = 2 f(1) - f(0) steps from f(0)
@example(k=1, start=1, length=5)
@example(k=1, start=1, length=3)
@example(k=3, start=3, length=3)
@example(k=3, start=200, length=4)  # a block of k-1 sums, k for values
@example(k=3, start=200, length=5)
@example(k=3, start=0, length=9)
@example(k=7, start=1, length=8)
@example(k=7, start=7, length=17)
@example(k=12, start=12, length=14)
@example(k=12, start=0, length=27)
@example(k=12, start=1, length=12)
@example(k=5, start=2, length=120)  # start < k+1: columns that start with zeros
@example(k=12, start=0, length=120)
@example(k=1, start=0, length=120)
def test_ranges_match_the_recurrence(k, start, length):
    stop = start + length
    assert list(stream_sums(k, start, stop, "dunkel")) == list(sums_from(k, start, stop))
    assert list(stream_values(k, start, stop, "dunkel-term")) == list(values_from(k, start, stop))


def test_short_range_holds_no_row():
    # At k=2, n=20000 the row C(n-2j, j) holds about 6 MiB of binomials; a
    # range keeps a column of O(b) n-bit entries per block of b indices.
    tracemalloc.start()
    try:
        values = list(stream_values(2, 20_000, 20_002, "dunkel-term"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [recurrence(2, n) for n in (20_000, 20_001)]
    assert peak < 1024 * 1024


def test_range_memory_does_not_grow_with_its_length():
    # A range holds one block of at most k-1 indices, then its last k+1
    # values, whatever its length; the row C(n-j, j) of n = 4000 alone
    # holds about 1.2 MiB.
    start, stop = 4_000, 4_000 + 710
    tracemalloc.start()
    try:
        values = list(stream_values(1, start, stop, "dunkel-term"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == list(values_from(1, start, stop))
    assert peak < 512 * 1024


@pytest.mark.parametrize("stream, engine", [(stream_sums, "dunkel"), (stream_values, "dunkel-term")])
def test_the_first_record_comes_before_the_block(monkeypatch, stream, engine):
    # the first index is folded alone, so a range's first record does not
    # wait for the block of the next k-1 indices
    calls = []
    real = closed_form._block_folds

    def spy(k, block):
        calls.append(block)
        return real(k, block)

    monkeypatch.setattr(closed_form, "_block_folds", spy)
    records = stream(3, 6000, 6056, engine, text=True)
    next(records)
    assert calls == []
    next(records)
    assert len(calls) == 1


def _head_counts(k):
    return sorted({1, 2, max(k - 1, 1), k, k + 1, k + 2})


@pytest.mark.parametrize("term", [False, True], ids=["sums", "values"])
@pytest.mark.parametrize("k", range(1, 9))
def test_the_head_is_the_single_index_folds(k, term):
    # the first min(count, k) indices, each what a single index folds,
    # whether the head folds it alone or in its block
    for start in (0, 1, 5, 37, 200):
        single = [next(closed_form._closed_head(k, n, 1, term)) for n in range(start, start + k)]
        for count in _head_counts(k):
            assert list(closed_form._closed_head(k, start, count, term)) == single[:count], (start, count)


@pytest.mark.parametrize("term", [False, True], ids=["sums", "values"])
@pytest.mark.parametrize("k", range(1, 9))
def test_the_block_holds_the_head_after_its_first_index(monkeypatch, k, term):
    # k-1 sums for S, and for f the k sums of the same indices and of the
    # first, which its differences need
    calls = []
    real = closed_form._block_folds

    def spy(k, block):
        calls.append(block)
        return real(k, block)

    monkeypatch.setattr(closed_form, "_block_folds", spy)
    for start in (0, 1, 5, 37, 200):
        for count in _head_counts(k):
            calls.clear()
            list(closed_form._closed_head(k, start, count, term))
            block = range(start + 1 - term, start + min(count, k))
            assert calls == ([block] if min(count, k) > 1 else []), (start, count)
