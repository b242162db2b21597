import pytest

from kbonacci import (
    Engine,
    compute_sum,
    compute_value,
    kbonacci_closed,
    kbonacci_matrix,
    kbonacci_prefix,
    kbonacci_recurrence,
    partial_sum_direct,
    partial_sum_dunkel,
    partial_sum_dunkel_extended,
    partial_sum_matrix,
)


def test_value_engines_agree():
    for engine in (Engine.RECURRENCE, Engine.DUNKEL_TERM, Engine.MATRIX):
        assert compute_value(5, 30, engine) == compute_value(5, 30)


def test_sum_engines_agree():
    for engine in (Engine.RECURRENCE, Engine.DUNKEL, Engine.MATRIX):
        assert compute_sum(5, 30, engine) == compute_sum(5, 30)


def test_explicit_limit_routes_to_extended_form():
    assert compute_sum(2, 10, Engine.DUNKEL, m=5) == compute_sum(2, 10)


def test_sum_only_engine_rejected_for_values():
    with pytest.raises(ValueError):
        compute_value(2, 4, Engine.DUNKEL)


def test_value_only_engine_rejected_for_sums():
    with pytest.raises(ValueError):
        compute_sum(2, 4, Engine.DUNKEL_TERM)


def test_limit_requires_dunkel_engine():
    with pytest.raises(ValueError):
        compute_sum(2, 10, Engine.MATRIX, m=5)


def _extended(k, n):
    return partial_sum_dunkel_extended(k, n, 2)


@pytest.mark.parametrize(
    "fn",
    [
        kbonacci_recurrence,
        kbonacci_closed,
        kbonacci_matrix,
        kbonacci_prefix,
        partial_sum_direct,
        partial_sum_dunkel,
        _extended,
        partial_sum_matrix,
    ],
)
@pytest.mark.parametrize("k, n", [(True, 5), (2, True), (2.0, 5), (2, 5.0), ("2", 5), (2, None)])
def test_non_int_arguments_raise_type_error(fn, k, n):
    fn(2, 5)  # the same cell with ints is valid for every function
    with pytest.raises(TypeError):
        fn(k, n)
