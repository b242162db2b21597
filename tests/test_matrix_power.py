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
