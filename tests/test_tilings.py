import ast
import sys
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import (
    CapExceededError,
    bounded_tiles,
    compute_sum,
    count_by_rightmost_tile,
    exact_tiles,
    expand_marks,
    identity_report,
    kbonacci_prefix,
    oversized_members,
    unrestricted_tiles,
)
from kbonacci import tilings

from oracles import (
    naive_expand,
    naive_identity_sides,
    naive_intersection_count,
    naive_value,
    oversized_ends,
    pascal_rows,
    subset_tilings,
)


class TestExactEnumeration:
    def test_squares_and_dominoes_length_four(self):
        assert list(exact_tiles(2, 4)) == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (2, 1, 1),
            (2, 2),
        ]

    def test_window_four_length_four(self):
        assert len(list(exact_tiles(4, 4))) == 8

    def test_length_zero_has_the_empty_tiling(self):
        assert list(exact_tiles(3, 0)) == [()]

    def test_counts_match_sequence(self):
        for k in range(1, 6):
            prefix = kbonacci_prefix(k, 12)
            for n in range(0, 13):
                tilings = list(exact_tiles(k, n))
                assert len(tilings) == prefix[n]
                assert len(set(tilings)) == len(tilings)
                assert all(sum(t) == n and max(t, default=1) <= k for t in tilings)
                assert tilings == sorted(tilings)


class TestBoundedEnumeration:
    def test_examples(self):
        assert len(list(bounded_tiles(2, 4))) == 12
        assert list(bounded_tiles(1, 2)) == [(), (1,), (1, 1)]
        assert list(bounded_tiles(3, 1)) == [(), (1,)]

    def test_counts_match_partial_sums(self):
        for k in range(1, 5):
            for n in range(0, 12):
                assert len(list(bounded_tiles(k, n))) == compute_sum(k, n)


class TestUnrestrictedEnumeration:
    def test_small_cases(self):
        assert list(unrestricted_tiles(0)) == [()]
        assert sorted(unrestricted_tiles(2)) == [
            (),
            (1,),
            (1, 1),
            (2,),
        ]
        assert len(list(unrestricted_tiles(5))) == 32

    def test_powers_of_two_without_duplicates(self):
        for n in range(0, 13):
            tilings = list(unrestricted_tiles(n))
            assert len(tilings) == 1 << n
            assert len(set(tilings)) == len(tilings)

    def test_lexicographic_order(self):
        tilings = list(unrestricted_tiles(4))
        assert tilings == sorted(tilings)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 9))
    def test_mark_subsets_biject_onto_tilings(self, n):
        by_subset = dict(subset_tilings(n))
        assert len(by_subset) == 1 << n
        assert set(by_subset.values()) == set(unrestricted_tiles(n))
        for marks, tiles in by_subset.items():
            # no dashed mark: the expansion tiles between the marks
            assert expand_marks(1, n, (), marks) == (tiles, ())
            assert tuple(accumulate(tiles)) == marks  # marks recoverable from the tiling


def _lexicographic_oracle(n):
    """The oracle's tilings of total at most n, sorted, then (k, bounded,
    exact) for k 1..6, 20 and sys.maxsize.

    The 2^n mark subsets give distinct tilings, so each list is strictly
    increasing, and the exact one is the bounded one at total n."""
    every = sorted(tiles for _, tiles in subset_tilings(n))
    by_k = []
    for k in (*range(1, 7), 20, sys.maxsize):
        bounded = [t for t in every if max(t, default=1) <= k]
        by_k.append((k, bounded, [t for t in bounded if sum(t) == n]))
    return every, by_k


@pytest.mark.parametrize("n", range(0, 13))
def test_iterators_yield_tilings_in_lexicographic_order(n):
    every, by_k = _lexicographic_oracle(n)
    cases = [(unrestricted_tiles(n), every)]
    for k, bounded, exact in by_k:
        cases += [(bounded_tiles(k, n), bounded), (exact_tiles(k, n), exact)]
    for stream, expected in cases:
        tilings = list(stream)
        assert all(type(t) is tuple for t in tilings)
        assert tilings == expected


# the walk alone (0), tables of one and three rooms, and the default
@pytest.mark.parametrize("depth", [0, 1, 3, tilings._TABLE_ROOM])
@pytest.mark.parametrize("n", range(0, 13))
def test_tuples_match_the_oracle_across_the_table_boundary(monkeypatch, depth, n):
    monkeypatch.setattr(tilings, "_TABLE_ROOM", depth)
    every, by_k = _lexicographic_oracle(n)
    assert list(unrestricted_tiles(n)) == every
    for k, bounded, exact in by_k:
        assert list(bounded_tiles(k, n)) == bounded, k
        assert list(exact_tiles(k, n)) == exact, k


class TestEnumerationCap:
    def test_default_cap_rejects_large_n(self):
        with pytest.raises(CapExceededError):
            list(unrestricted_tiles(25))
        with pytest.raises(CapExceededError):
            list(exact_tiles(2, 25))

    def test_cap_override(self):
        assert len(list(exact_tiles(1, 30, cap=30))) == 1
        with pytest.raises(CapExceededError):
            list(exact_tiles(1, 30, cap=10))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            list(exact_tiles(2, -1))

    @pytest.mark.parametrize("cap", [2.5, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda cap: exact_tiles(2, 2, cap),
            lambda cap: bounded_tiles(2, 2, cap),
            lambda cap: unrestricted_tiles(2, cap),
            lambda cap: oversized_members(2, 3, cap),
        ],
        ids=[
            "exact_tiles",
            "bounded_tiles",
            "unrestricted_tiles",
            "oversized_members",
        ],
    )
    def test_non_int_cap_rejected(self, call, cap):
        # 2.5 must not read as a cap between 2 and 3, nor True as cap 1
        with pytest.raises(TypeError, match="cap must be an int"):
            list(call(cap))


def _enumerated_intersection_count(k, n, ends):
    """Members of U, as the library enumerates them, with an oversized tile
    ending at every j in ends."""
    return sum(1 for t in unrestricted_tiles(n) if set(ends) <= oversized_ends(t, k))


class TestIntersectionCount:
    @pytest.mark.parametrize(
        "k, n, ends, expected",
        [
            (2, 5, (3,), 4),
            (2, 5, (2,), 0),
            (2, 7, (3, 6), 2),
            (2, 5, (), 32),  # empty intersection condition selects all of U
        ],
    )
    def test_examples(self, k, n, ends, expected):
        assert naive_intersection_count(k, n, ends) == expected
        assert _enumerated_intersection_count(k, n, ends) == expected

    def test_spacing_violations_count_zero(self):
        # adjacent oversized ends cannot coexist: j2 - j1 <= k
        for count in (naive_intersection_count, _enumerated_intersection_count):
            assert count(2, 8, (3, 5)) == 0
            assert count(3, 6, (2,)) == 0  # k < j1 fails

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_against_subset_oracle(self, data):
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 8))
        ends = tuple(
            sorted(data.draw(st.sets(st.integers(1, max(n, 1)), max_size=2))) if n else ()
        )
        assert _enumerated_intersection_count(k, n, ends) == naive_intersection_count(k, n, ends)


def _marks_mask(tiles):
    """The member of U that tiles spans: bit 0 and the bit of every right end."""
    return sum(1 << j for j in (0, *accumulate(tiles)))


class TestOversizedMembers:
    def test_worked_example(self):
        tiles = (1, 3, 2)
        assert sum(tiles) == 6
        assert tuple(accumulate(tiles)) == (1, 4, 6)
        # for k = 2 the tile 3 is the one oversized tile, and it ends at 4
        members = oversized_members(2, 6)
        assert _marks_mask(tiles) in members[1 << 4]
        assert all(_marks_mask(tiles) not in ms for ends, ms in members.items() if ends != 1 << 4)

    @pytest.mark.parametrize("k", [True, 1.0, "1"])
    def test_non_int_oversize_bound_raises_type_error(self, k):
        assert _marks_mask((2, 1)) in oversized_members(1, 3)[1 << 2]
        with pytest.raises(TypeError, match="k must be an int"):
            oversized_members(k, 3)


class TestExpandMarks:
    def test_reduced_ruler_illustration(self):
        # n=11, k=3, two dashed marks at 2 and 4 plus a normal mark at 3
        assert expand_marks(3, 11, (2, 4), {3}) == ((5, 1, 4), (5, 10))

    def test_single_dashed_mark(self):
        assert expand_marks(2, 3, (1,)) == ((3,), (3,))

    def test_dashed_then_normal(self):
        assert expand_marks(2, 5, (1,), {3}) == ((3, 2), (3,))

    def test_no_dashed_marks_is_the_identity_embedding(self):
        assert expand_marks(2, 4, (), {1, 3}) == ((1, 2), ())
        assert expand_marks(1, 3, (), [3, 1]) == ((1, 2), ())
        assert expand_marks(1, 0, ()) == ((), ())

    @pytest.mark.parametrize("marks", [[1.5, 3], [True, 3], [1, 3.0]])
    def test_non_int_marks_raise_type_error(self, marks):
        assert expand_marks(1, 3, (), [1, 3]) == ((1, 2), ())
        with pytest.raises(TypeError, match="mark position must be an int"):
            expand_marks(1, 3, (), marks)

    # k = 2 throughout, so n - i*k = 3 in every case with an int n but the last
    @pytest.mark.parametrize(
        "n, dashed, normal, error, match",
        [
            (5, (0,), (), ValueError, r"dashed positions must lie in 1\.\.n - i\*k = 3,"),
            (7, (2, 1), (), ValueError, "dashed positions must be strictly increasing"),
            (5, (2,), {2}, ValueError, "normal and dashed positions must be disjoint"),
            (5, (1,), {4}, ValueError, r"normal positions must lie in 1\.\.n - i\*k = 3,"),
            (3, (), {0}, ValueError, r"normal positions must lie in 1\.\.n - i\*k = 3,"),
            (3.0, (1,), (), TypeError, "n must be an int"),
            (True, (1,), (), TypeError, "n must be an int"),
            (5, (True,), {3}, TypeError, "mark position must be an int"),
            (5, (1.0,), (), TypeError, "mark position must be an int"),
            (5, (1,), {True}, TypeError, "mark position must be an int"),
            (3, (), {2.0}, TypeError, "mark position must be an int"),
            # a dashed position past n - i*k, and n - i*k < 0
            (5, (4,), (), ValueError, r"dashed positions must lie in 1\.\.n - i\*k = 3,"),
            (3, (1, 2), (), ValueError, r"dashed positions must lie in 1\.\.n - i\*k = -1,"),
        ],
    )
    def test_argument_contract(self, n, dashed, normal, error, match):
        with pytest.raises(error, match=match):
            expand_marks(2, n, dashed, normal)

    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_non_int_n_raises_type_error(self, n):
        assert expand_marks(2, 3, (1,)) == ((3,), (3,))
        with pytest.raises(TypeError):
            expand_marks(2, n, (1,))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_construction_postconditions(self, data):
        k = data.draw(st.integers(1, 4))
        i = data.draw(st.integers(0, 3))
        n_reduced = i + data.draw(st.integers(0, 5))
        dashed = tuple(sorted(data.draw(st.sets(st.integers(1, max(n_reduced, 1)), min_size=i, max_size=i)))) if n_reduced else ()
        free = sorted(set(range(1, n_reduced + 1)) - set(dashed))
        normal = frozenset(data.draw(st.sets(st.sampled_from(free)))) if free else frozenset()
        n = n_reduced + i * k

        tiles, ends = expand_marks(k, n, dashed, normal)

        assert (ends, tiles) == naive_expand(k, dashed, normal)
        assert sum(tiles) <= n
        assert ends == tuple(r + (idx + 1) * k for idx, r in enumerate(dashed))
        # expanded tiles are oversized exactly at the promised positions
        assert set(ends) <= oversized_ends(tiles, k)
        lengths = dict(zip(accumulate(tiles), tiles))
        for j in ends:
            assert lengths[j] >= k + 1
        # non-overlap spacing of the oversized ends
        if ends:
            assert k < ends[0]
            assert all(a + k < b for a, b in zip(ends, ends[1:]))


class TestIntersectionIdentity:
    def test_single_end_grid_cell(self):
        report = identity_report(2, 5, 1, oversized_members(2, 5))
        assert report.lhs == report.rhs == 12
        assert report.passed

    def test_two_end_grid_cell(self):
        report = identity_report(2, 6, 2, oversized_members(2, 6))
        assert report.lhs == report.rhs == 1
        assert report.passed

    def test_reports_match_the_oracle_up_to_n_9(self):
        binomials = pascal_rows(9)
        for n in range(2, 10):
            for k in range(1, n):
                members = oversized_members(k, n)
                for i in range(1, n // (k + 1) + 1):
                    report = identity_report(k, n, i, members)
                    union, image = naive_identity_sides(k, n, i)
                    lhs = sum(
                        naive_intersection_count(k, n, ends)
                        for ends in combinations(range(1, n + 1), i)
                    )
                    n_reduced = n - i * k
                    assert (report.k, report.n, report.i) == (k, n, i)
                    assert report.lhs == lhs == len(union)
                    assert report.rhs == binomials[n_reduced][i] * 2 ** (n_reduced - i)
                    assert report.configurations == len(image)
                    assert report.injective == (len(set(image)) == len(image))
                    assert report.image_matches == (set(image) == union)

    @pytest.mark.parametrize("i", [True, 1.0, "1", None])
    def test_non_int_i_rejected(self, i):
        with pytest.raises(TypeError, match="i must be an int"):
            identity_report(2, 6, i, oversized_members(2, 6))

    @pytest.mark.parametrize("i", [0, -1, 2])
    def test_out_of_range_i_rejected(self, i):
        with pytest.raises(ValueError):
            identity_report(3, 3, i, oversized_members(3, 3))  # floor(3/4) = 0 legal values

    def test_small_grid_passes(self):
        for n in range(2, 11):
            for k in range(1, n):
                members = oversized_members(k, n)
                for i in range(1, n // (k + 1) + 1):
                    assert identity_report(k, n, i, members).passed


class TestRightmostTilePartition:
    @pytest.mark.parametrize(
        "k, n, expected",
        [
            (2, 4, [(1, 3), (2, 2)]),
            (4, 4, [(1, 4), (2, 2), (3, 1), (4, 1)]),
            (3, 1, [(1, 1)]),
        ],
    )
    def test_examples(self, k, n, expected):
        assert count_by_rightmost_tile(k, n) == expected

    def test_reproduces_the_recurrence(self):
        for k in range(1, 5):
            for n in range(1, 12):
                parts = count_by_rightmost_tile(k, n)
                assert parts == [
                    (l, naive_value(k, n - l)) for l in range(1, min(k, n) + 1)
                ]
                assert sum(c for _, c in parts) == naive_value(k, n)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            count_by_rightmost_tile(2, 0)

    @pytest.mark.parametrize("n", [0.5, 1.5])
    def test_non_int_n_rejected_before_its_sign(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            count_by_rightmost_tile(2, n)


def test_subtraction_skeleton():
    # 2^n minus the tilings containing an oversized tile = bounded count
    for k in range(1, 5):
        for n in range(0, 11):
            with_oversized = sum(
                1 for t in unrestricted_tiles(n) if any(x > k for x in t)
            )
            assert (1 << n) - with_oversized == compute_sum(k, n)


def test_the_laboratory_imports_only_sequence_from_the_package():
    # the identity suites check closed_form's formula against this module,
    # so it must share no code with closed_form, its binomial above all
    tree = ast.parse(Path(tilings.__file__).read_text(encoding="utf-8"))
    imported = [
        "." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    package = [name for name in imported if name.startswith(".") or name.partition(".")[0] == "kbonacci"]
    assert package == [".sequence"], imported
