"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact integer equality; the only tolerances are the
wall-clock budgets stated alongside each criterion.  Run with

    pytest tests/test_acceptance.py -v
"""

import json
import time
from functools import partial

import pytest

from kbonacci import (
    TERM_FORMULA,
    compute_sum,
    compute_value,
    exact_tiles,
    identity_report,
    kbonacci_prefix,
    oversized_members,
    partial_sum_dunkel_extended,
    term_breakdown,
    unrestricted_tiles,
)
from kbonacci.cli import main
from kbonacci.engines import SUM_NAMES, VALUE_NAMES

# every registered engine, as its single-index call
VALUE_ENGINES = tuple(partial(compute_value, engine=engine) for engine in VALUE_NAMES)
SUM_ENGINES = tuple(partial(compute_sum, engine=engine) for engine in SUM_NAMES)


@pytest.fixture
def criterion(capsys):
    """Run one criterion body, enforce its budget, always print a line."""

    def runner(number, description, budget_s, body):
        start = time.perf_counter()
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d}: FAIL  {description}")
            raise
        elapsed = time.perf_counter() - start
        within = budget_s is None or elapsed <= budget_s
        with capsys.disabled():
            status = "PASS" if within else "FAIL"
            print(f"criterion {number:2d}: {status}  {description}  [{elapsed:.2f}s]")
        assert within, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"

    return runner


def test_criterion_01_small_counts(criterion):
    def body():
        for engine in VALUE_ENGINES:
            assert engine(2, 4) == 5
            assert engine(4, 4) == 8
        assert len(list(exact_tiles(2, 4))) == 5
        assert len(list(exact_tiles(4, 4))) == 8

    criterion(1, "small counts: f(4) for k=2 and k=4, engines and tilings", 1.0, body)


def test_criterion_02_degenerate_family(criterion):
    def body():
        assert kbonacci_prefix(1, 1000) == [1] * 1001
        for n in range(0, 1001):
            for engine in VALUE_ENGINES:
                assert engine(1, n) == 1

    criterion(2, "degenerate family: f(n)=1 for k=1, n in 0..1000, every engine", 1.0, body)


def test_criterion_03_main_identity(criterion):
    def body():
        for k in range(1, 7):
            running = 0
            prefix = kbonacci_prefix(k, 60)
            for n in range(0, 61):
                running += prefix[n]
                for engine in SUM_ENGINES:
                    assert engine(k, n) == running

    criterion(3, "main identity: three sum engines agree for k in 1..6, n in 0..60", 10.0, body)


def test_criterion_04_base_case(criterion):
    def body():
        for k in range(1, 11):
            for n in range(0, k + 1):
                assert compute_sum(k, n, "dunkel") == 1 << n

    criterion(4, "base case: partial sum is 2^n whenever n <= k, k in 1..10", None, body)


def test_criterion_05_extended_limit(criterion):
    def body():
        for k in range(1, 6):
            for n in range(0, 41):
                base = compute_sum(k, n, "dunkel")
                for m in range(n // (k + 1), n // k + 1):
                    assert partial_sum_dunkel_extended(k, n, m) == base

    criterion(5, "extended limit: every legal m gives the base sum, k in 1..5, n in 0..40", None, body)


def test_criterion_06_per_term_formula(criterion):
    def body():
        for k in range(1, 7):
            prefix = kbonacci_prefix(k, 60)
            for n in range(0, 61):
                assert compute_value(k, n, "dunkel-term") == prefix[n]
                for t in term_breakdown(k, n, TERM_FORMULA):
                    assert isinstance(t.magnitude, int)
                    assert t.magnitude >= 0

    criterion(6, "per-term formula matches the recurrence with integer terms", None, body)


def test_criterion_07_hash_mark_count(criterion):
    def body():
        for n in range(0, 17):
            seen = set()
            count = 0
            for tiling in unrestricted_tiles(n):
                seen.add(tiling)
                count += 1
            assert count == 1 << n
            assert len(seen) == count

    criterion(7, "hash marks: |U| = 2^n with no duplicates, n in 0..16", 30.0, body)


def test_criterion_08_inclusion_exclusion_bijection(criterion):
    def body():
        for n in range(0, 17):
            for k in range(1, n + 1):
                members = oversized_members(k, n)  # one sweep of U for every i
                for i in range(1, n // (k + 1) + 1):
                    report = identity_report(k, n, i, members)
                    assert report.lhs == report.rhs, (k, n, i)
                    assert report.injective, (k, n, i)
                    assert report.image_matches, (k, n, i)
                    assert report.configurations == report.rhs, (k, n, i)

    criterion(
        8,
        "inclusion-exclusion: counts match and the mark expansion bijects, n <= 16",
        120.0,
        body,
    )


def test_criterion_09_subtraction_skeleton(criterion):
    def body():
        for k in range(1, 5):
            for n in range(0, 13):
                with_oversized = sum(
                    1 for t in unrestricted_tiles(n) if any(x > k for x in t)
                )
                assert (1 << n) - with_oversized == compute_sum(k, n)

    criterion(9, "skeleton: 2^n minus oversized tilings equals the partial sum", None, body)


def test_criterion_10_performance(criterion, capsys):
    def body():
        start = time.perf_counter()
        linear = compute_value(2, 100_000, "recurrence")
        linear_s = time.perf_counter() - start

        start = time.perf_counter()
        powered = compute_value(2, 100_000, "matrix")
        powered_s = time.perf_counter() - start

        assert linear == powered
        assert linear_s < 10.0, f"linear engine took {linear_s:.2f}s"
        assert powered_s < 10.0, f"matrix engine took {powered_s:.2f}s"

        code = main(
            [
                "bench", "--k", "2", "--n", "100000",
                "--engines", "recurrence,matrix",
                "--reps", "1", "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = {row["engine"]: row for row in map(json.loads, out.splitlines())}
        assert rows["recurrence"]["value"] == rows["matrix"]["value"]
        assert rows["matrix"]["ops"] < rows["recurrence"]["ops"]

    criterion(10, "performance: matrix equals recurrence at n=100000 in O(log n) ops", None, body)
