"""Invariant suites behind the CLI's verify subcommand.

Each suite sweeps a (k, n) grid, counts the checks it ran and collects a
line per failure.  Suites are deterministic: cells are visited in sorted
(k, n) order and results do not depend on execution interleaving.

`run_suites` is the one entry, and the one place that checks its input,
all of it before any suite starts: the suite names, the k and n grids as
non-empty ranges of step 1 whose ends lie in the input domain, the cap,
and, for the suites that enumerate, the n grid against the cap.  So no
suite sweeps its cheap cells before a k or an index it cannot take.  It
then calls every suite alike, as SUITES[name](SuiteResult(name), ks, ns,
cap, cells), so a suite's name is written once, in `SUITE_NAMES`.  cells
is one dict per call, in which each (k, n) cell of the intersection
identity is computed once for every suite of the call that reads it.  U is
swept once per k, at the grid's top n, and every cell of that k reads its
members from the one sweep; cells drops the sweep once the top cell is
built, so a call holds one k's sweep at a time and leaves only (k, n)
cells behind.
"""

from __future__ import annotations

from bisect import bisect_left
from decimal import Decimal
from itertools import chain, combinations
from operator import sub

from .closed_form import SUM_FORMULA, TERM_FORMULA, partial_sum_dunkel_extended, term_breakdown
from .engines import (
    SUITE_NAMES,
    SUM_NAMES,
    VALUE_NAMES,
    compute_sum,
    compute_value,
    stream_sums,
    stream_values,
)
from .sequence import (
    DEFAULT_CAP,
    _check_index,
    _check_k,
    _check_n,
    kbonacci_prefix,
    sums_from,
    values_from,
)
from .tilings import (
    _check_enumerable,
    bounded_tiles,
    count_by_rightmost_tile,
    exact_tiles,
    identity_report,
    oversized_members,
    unrestricted_tiles,
)


class SuiteResult:
    """A suite's name, the number of checks it ran, and a line per failure."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, detail: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(detail)


def suite_engines(result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict) -> SuiteResult:
    """Every registered engine agrees with the recurrence, read from the
    sequence module and not through the registry: per k, one pass of
    values_from and sums_from over the grid's indices, which step by no
    engine's tail.  Each engine is checked at each index alone, and over
    the whole grid as one int range and one text range, whose texts are
    read back by Decimal, not by the renderer.  The grid is a range of
    step 1 of indices n >= 0, as the CLI parses it and `run_suites` checks
    it; like every range generator, values_from rejects a negative
    start."""
    cell = f"n={ns.start}..{ns.stop - 1}"
    for k in ks:
        values = list(values_from(k, ns.start, ns.stop))
        sums = list(sums_from(k, ns.start, ns.stop))
        for n, value, total in zip(ns, values, sums):
            for engine in VALUE_NAMES:
                result.expect(
                    compute_value(k, n, engine) == value, f"value {engine} mismatch at k={k} n={n}"
                )
            for engine in SUM_NAMES:
                result.expect(
                    compute_sum(k, n, engine) == total, f"sum {engine} mismatch at k={k} n={n}"
                )
        for quantity, names, stream, expected in (
            ("value", VALUE_NAMES, stream_values, values),
            ("sum", SUM_NAMES, stream_sums, sums),
        ):
            for engine in names:
                result.expect(
                    list(stream(k, ns.start, ns.stop, engine)) == expected,
                    f"{quantity} {engine} range mismatch at k={k} {cell}",
                )
                result.expect(
                    list(map(_read_back, stream(k, ns.start, ns.stop, engine, text=True))) == expected,
                    f"{quantity} {engine} text mismatch at k={k} {cell}",
                )
    return result


def _read_back(text: str) -> Decimal | None:
    """The exact value of a decimal integer's text, or None if the text is
    not digits alone."""
    return Decimal(text) if text.isascii() and text.isdecimal() else None


def suite_closed_form(result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict) -> SuiteResult:
    """Identities internal to the closed forms: base case, raised limits,
    difference identity, term folding and integrality."""
    for k in ks:
        for n in ns:
            base = compute_sum(k, n, "dunkel")
            if n <= k:
                result.expect(base == 1 << n, f"base case 2^n fails at k={k} n={n}")
            for m in range(n // (k + 1), n // k + 1):
                result.expect(
                    partial_sum_dunkel_extended(k, n, m) == base,
                    f"extended limit m={m} changes the sum at k={k} n={n}",
                )
            value = compute_value(k, n, "dunkel-term")
            if n >= 1:
                result.expect(
                    value == base - compute_sum(k, n - 1, "dunkel"),
                    f"difference identity fails at k={k} n={n}",
                )
            for which, total in ((SUM_FORMULA, base), (TERM_FORMULA, value)):
                terms = term_breakdown(k, n, which)
                result.expect(
                    sum(t.value for t in terms) == total,
                    f"{which} terms do not fold back at k={k} n={n}",
                )
                result.expect(
                    all(t.magnitude >= 0 and t.sign == (-1) ** t.j for t in terms),
                    f"{which} term shape violated at k={k} n={n}",
                )
    return result


def suite_tilings(result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict) -> SuiteResult:
    """Enumeration counts match the sequence engines tile for tile."""
    for k in ks:
        prefix = kbonacci_prefix(k, ns[-1])
        for n in ns:
            exact = list(exact_tiles(k, n, cap))
            result.expect(
                len(exact) == prefix[n], f"exact tiling count mismatch at k={k} n={n}"
            )
            result.expect(
                len(set(exact)) == len(exact), f"duplicate tilings at k={k} n={n}"
            )
            result.expect(
                set(map(sum, exact)) == {n}
                and set(chain.from_iterable(exact)) <= set(range(1, min(k, n) + 1)),
                f"invalid tiling emitted at k={k} n={n}",
            )
            result.expect(
                exact == sorted(exact), f"tilings not in lexicographic order at k={k} n={n}"
            )
            bounded = sum(1 for _ in bounded_tiles(k, n, cap))
            result.expect(
                bounded == sum(prefix[: n + 1]),
                f"bounded tiling count mismatch at k={k} n={n}",
            )
            if n >= 1:
                parts = count_by_rightmost_tile(k, n, cap)
                result.expect(
                    parts == [(l, prefix[n - l]) for l in range(1, min(k, n) + 1)],
                    f"rightmost-tile partition mismatch at k={k} n={n}",
                )
    return result


def suite_hash_marks(result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict) -> SuiteResult:
    """|U| = 2^n and the mark-subset -> tiling map is a bijection.

    Independent of k; the k range is ignored.  The oracle is built from
    mark subsets alone, once per call: the tiles of a sorted subset are the
    gaps between its marks, 0 included, so they add up to its last mark m,
    and the oracle at n is the union of the layers m = 0..n.  One set grows
    by each new layer as n rises.
    """
    from_subsets = {()}  # layer 0: no mark past 0
    last = 0
    for n in ns:
        tilings = list(unrestricted_tiles(n, cap))
        distinct = set(tilings)
        result.expect(len(tilings) == 1 << n, f"|U| != 2^{n}")
        result.expect(len(distinct) == len(tilings), f"duplicate unrestricted tilings at n={n}")
        for m in range(last + 1, n + 1):  # layer m: m and any subset of 1..m-1
            from_subsets.update(
                tuple(map(sub, (*marks, m), (0, *marks)))
                for r in range(m)
                for marks in combinations(range(1, m), r)
            )
        last = n
        result.expect(
            from_subsets == distinct and len(from_subsets) == 1 << n,
            f"mark-subset map is not a bijection at n={n}",
        )
    return result


def _identity_cell(cells: dict, k: int, n: int, top: int, cap: int | None) -> tuple[int, list]:
    """(count of the members of U with an oversized tile, identity reports
    for i = 1..n//(k+1)) of cell (k, n), kept in cells so that the suites
    of one run_suites call share it.

    U is swept once per k, at top, the grid's last n, and the sweep waits
    in cells[k] until the top cell is built.  Members come in increasing
    order of marks and their oversized ends do not depend on n, so the
    members of U(n) are each group's prefix of marks below 2 << n.  A group
    with an end past n has no member in U(n), and any other group has one:
    a member's marks past n leave its ends as they are, so dropping them
    gives a member of U(n) in the same group."""
    cell = cells.get((k, n))
    if cell is None:
        swept = cells.pop(k, None)
        if swept is None:
            swept = oversized_members(k, top, cap)
        if n == top:
            members = swept
        else:
            cells[k] = swept
            limit = 2 << n
            members = {
                ends: group[: bisect_left(group, limit)]
                for ends, group in swept.items()
                if ends < limit
            }
        reports = [identity_report(k, n, i, members) for i in range(1, n // (k + 1) + 1)]
        cell = cells[k, n] = (sum(map(len, members.values())), reports)
    return cell


def suite_inclusion_exclusion(
    result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict
) -> SuiteResult:
    """The subtraction skeleton and the intersection-count identity."""
    for k in ks:
        for n in ns:
            with_oversized, reports = _identity_cell(cells, k, n, ns[-1], cap)
            result.expect(
                (1 << n) - with_oversized == compute_sum(k, n),
                f"2^n minus oversized count misses the partial sum at k={k} n={n}",
            )
            for report in reports:
                result.expect(
                    report.lhs == report.rhs,
                    f"intersection counts differ at k={k} n={n} i={report.i}: "
                    f"{report.lhs} != {report.rhs}",
                )
    return result


def suite_bijection(
    result: SuiteResult, ks: range, ns: range, cap: int | None, cells: dict
) -> SuiteResult:
    """Mark expansion is injective and fills the counted union exactly."""
    for k in ks:
        for n in ns:
            _, reports = _identity_cell(cells, k, n, ns[-1], cap)
            for report in reports:
                i = report.i
                result.expect(
                    report.injective, f"expand_marks not injective at k={k} n={n} i={i}"
                )
                result.expect(
                    report.image_matches,
                    f"expand_marks image mismatch at k={k} n={n} i={i}",
                )
                result.expect(
                    report.configurations == report.rhs,
                    f"configuration count != C(n-ik,i)*2^(n-i(k+1)) at k={k} n={n} i={i}",
                )
    return result


SUITES = dict(
    zip(
        SUITE_NAMES,
        (
            suite_engines,
            suite_closed_form,
            suite_tilings,
            suite_hash_marks,
            suite_inclusion_exclusion,
            suite_bijection,
        ),
        strict=True,
    )
)


# Suites that enumerate, so run_suites checks their whole n grid against the
# cap before any of them starts.
_ENUMERATING = {"tilings", "hash-marks", "inclusion-exclusion", "bijection"}


def run_suites(names, ks: range, ns: range, cap: int | None = None) -> list[SuiteResult]:
    """Run the named suites, each once in the order first named, over the
    grid ks by ns, once all of the input passes: the suite names, the
    grids' shape and ends, and the cap.  A malformed cap is refused
    whatever the suites; only the suites that enumerate are bound by it."""
    if not names:
        raise ValueError(f"no suite named; choose from {sorted(SUITE_NAMES)}")
    unknown = [name for name in names if name not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {sorted(SUITE_NAMES)}")
    for axis, grid in (("k", ks), ("n", ns)):
        if not grid or grid.step != 1:
            raise ValueError(f"the {axis} grid must be a non-empty range of step 1, got {grid}")
    _check_enumerable(0, cap)  # the cap alone: n = 0 passes any cap
    if _ENUMERATING.intersection(names):
        # The cap bounds n from above: the grid's first n, and the first n
        # past the cap if the grid reaches it, stand for the whole grid.
        _check_enumerable(ns[0], cap)
        effective = DEFAULT_CAP if cap is None else cap
        if ns[-1] > effective:
            _check_enumerable(effective + 1, cap)
    for end in (ks[0], ks[-1]):
        _check_k(end)
    for end in (ns[0], ns[-1]):
        _check_index(end)
    _check_n(ns[0])
    cells: dict = {}
    return [SUITES[name](SuiteResult(name), ks, ns, cap, cells) for name in dict.fromkeys(names)]
