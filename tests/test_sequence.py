import ast
from functools import partial
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import compute_sum, compute_value, kbonacci_prefix, sequence, values

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


def test_the_baseline_imports_nothing_from_the_package():
    # the engines are checked against this module, so it must share no
    # code with them, the range tail above all
    tree = ast.parse(Path(sequence.__file__).read_text(encoding="utf-8"))
    imported = [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert imported and not [
        name for name in imported if name.startswith(".") or name.partition(".")[0] == "kbonacci"
    ], imported
