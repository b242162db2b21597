import decimal
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import (
    OpCount,
    kbonacci_matrix,
    kbonacci_prefix,
    kbonacci_recurrence,
    partial_sum_direct,
    partial_sum_matrix,
)
from kbonacci import engines, matrix_power
from kbonacci.matrix_power import (
    _half,
    _residue,
    matrix_sum_texts_from,
    matrix_sums_from,
    matrix_value_texts_from,
    matrix_values_from,
)
from kbonacci.render import _decimal_str, exact


@pytest.mark.parametrize("k, n, expected", [(2, 4, 5), (3, 0, 1), (5, 2, 2)])
def test_value_examples(k, n, expected):
    assert kbonacci_matrix(k, n) == expected


def test_value_matches_recurrence_at_64():
    assert kbonacci_matrix(2, 64) == kbonacci_recurrence(2, 64)


@pytest.mark.parametrize("k, n, expected", [(2, 4, 12), (5, 0, 1), (3, 7, 96)])
def test_sum_examples(k, n, expected):
    assert partial_sum_matrix(k, n) == expected


def test_cross_engine_grid():
    for k in range(1, 7):
        prefix = kbonacci_prefix(k, 80)
        running = 0
        for n in range(0, 81):
            running += prefix[n]
            assert kbonacci_matrix(k, n) == prefix[n]
            assert partial_sum_matrix(k, n) == running


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1000, 10_000, 100_000])
def test_large_indices_match_linear_engine(k, n):
    assert kbonacci_matrix(k, n) == kbonacci_recurrence(k, n)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), n=st.integers(0, 3000))
def test_wide_windows_match_linear_engines(k, n):
    # the reduction x^e = 2x^(e-1) - x^(e-k-1) indexes by k, so reach past
    # the grid's k <= 6
    assert kbonacci_matrix(k, n) == kbonacci_recurrence(k, n)
    assert partial_sum_matrix(k, n) == partial_sum_direct(k, n)


def test_domain_errors():
    with pytest.raises(ValueError):
        kbonacci_matrix(0, 4)
    with pytest.raises(ValueError):
        kbonacci_matrix(2, -1)
    with pytest.raises(ValueError):
        partial_sum_matrix(2, -1)


def test_op_counting_is_logarithmic():
    ops = OpCount()
    kbonacci_matrix(2, 100_000, ops)
    assert ops.matrix_products > 0
    # ~2 log2(n) products of 2x2 matrices, nowhere near the 2n additions
    # the linear engine spends
    assert ops.scalar_mults < 1000


def test_delegates_below_k_without_matrix_work():
    ops = OpCount()
    assert kbonacci_matrix(6, 3, ops) == 4
    assert ops.matrix_products == 0
    ops = OpCount()
    assert partial_sum_matrix(6, 3, ops) == partial_sum_direct(6, 3)
    assert ops.matrix_products == 0


def test_op_count_of_a_small_cell():
    # k=2, n=10=0b1010: the leading bits 0b10 = 2 <= k give the start x^2
    # for free.  The two remaining bits each cost one squaring of the
    # 3-coefficient residue: 3 squares + 3 cross products = 6 multiplications.
    # Bit 1 also multiplies by x (x^5), bit 0 does not (x^10).
    ops = OpCount()
    assert kbonacci_matrix(2, 10, ops) == 89
    assert ops == OpCount(matrix_products=2, scalar_mults=12)


@pytest.mark.parametrize("stream", [matrix_values_from, matrix_sums_from])
def test_range_counts_only_the_jump(stream):
    # 40 steps past n=10 shift the residue without multiplying
    ops = OpCount()
    values = list(stream(2, 10, 51, ops))
    assert ops == OpCount(matrix_products=2, scalar_mults=12)
    single = kbonacci_matrix if stream is matrix_values_from else partial_sum_matrix
    assert values == [single(2, n) for n in range(10, 51)]


# (int generator, text generator) of each quantity
TEXT_PATHS = [
    (matrix_values_from, matrix_value_texts_from),
    (matrix_sums_from, matrix_sum_texts_from),
]


@pytest.mark.parametrize("switch", [0, 8, 40])
@pytest.mark.parametrize("ints, texts", TEXT_PATHS)
def test_text_path_matches_int_path(monkeypatch, switch, ints, texts):
    # a lowered switch sends small indices through Decimal squarings
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", switch)
    for k in range(1, 9):
        for n in range(201):
            int_ops, text_ops = OpCount(), OpCount()
            assert next(texts(k, n, n + 1, text_ops)) == str(next(ints(k, n, n + 1, int_ops))), (k, n)
            assert text_ops == int_ops


def test_lowered_switch_is_crossed(monkeypatch):
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
    with exact():
        assert {type(c) for c in _residue(3, 200, None, text=True)} == {Decimal}
        assert {type(c) for c in _residue(3, 20, None, text=True)} == {int}  # below it
    assert {type(c) for c in _residue(3, 200, None)} == {int}


@pytest.mark.parametrize("ints, texts", TEXT_PATHS)
def test_text_range_stepped_after_the_switch_matches_int_path(monkeypatch, ints, texts):
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
    for k in range(1, 9):
        for start in (100, 171):
            assert list(texts(k, start, start + 30)) == [str(v) for v in ints(k, start, start + 30)]


@pytest.mark.parametrize("ints, texts", TEXT_PATHS)
def test_text_range_past_the_real_switch(ints, texts):
    # coefficients near 52,000 bits before the last squaring at k=2, n=150000
    with exact():
        assert {type(c) for c in _residue(2, 150_000, None, text=True)} == {Decimal}
    expected = list(map(_decimal_str, ints(2, 150_000, 150_030)))
    assert list(texts(2, 150_000, 150_030)) == expected


def test_halving_an_odd_decimal_raises_inexact():
    with exact():
        assert str(_half(Decimal(14))) == "7"
        # plain division is exact at unbounded precision, so it would print 7.5
        assert str(Decimal(15) / 2) == "7.5"
        with pytest.raises(decimal.Inexact):
            _half(Decimal(15))
    assert _half(14) == 7


def test_library_stays_on_ints(monkeypatch):
    assert type(kbonacci_matrix(2, 10**6)) is int
    # the int path ignores the switch, however low it is
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 0)
    for name in engines.VALUE_NAMES:
        assert {type(v) for v in engines.stream_values(4, 150, 170, name)} == {int}
    for name in engines.SUM_NAMES:
        assert {type(v) for v in engines.stream_sums(4, 150, 170, name)} == {int}
    assert type(engines.compute_value(4, 150, "matrix")) is type(engines.compute_sum(4, 150, "matrix")) is int
