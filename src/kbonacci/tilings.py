"""Ruler tilings: exhaustive enumeration and bijection checks at desk scale.

A tiling is an ordered left-to-right list of positive tile lengths laid end
to end on a ruler.  Tilings of length exactly n with tiles of length at
most k are counted by f(n); tilings of length at most n are counted by the
partial sum f(0) + ... + f(n).

Dropping the tile-length bound gives the set U of all tilings of total
length at most n, and |U| = 2^n: put a hash mark at position 0, choose any
subset of the integer positions 1..n for further marks, fill the gaps
between consecutive marks with tiles, and end the tiling at the last mark.

The alternating partial-sum formula follows from subtracting, by
inclusion-exclusion, the tilings in U that contain an oversized tile (one
of length > k).  With U_j the tilings having an oversized tile whose right
end sits at position j, the sum of |U_{j_1} ∩ ... ∩ U_{j_i}| over all
j_1 < ... < j_i equals C(n-ik, i) * 2^(n-i(k+1)).  That count is realized
by an explicit construction on a reduced ruler of length n - ik: choose i
"dashed" mark positions and any subset of the remaining positions as
normal marks, tile between the marks, then lengthen each tile ending at a
dashed mark by k units, shifting everything to its right.
`verify_intersection_identity` checks both the count identity and that the
construction is a bijection, by brute force.

Everything here is exponential in n by design; the enumeration cap keeps
calls at desk scale and is overridable per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .closed_form import binomial
from .sequence import _check_int, _check_k

DEFAULT_CAP = 24


class CapExceededError(ValueError):
    """Raised when an exhaustive operation is asked to exceed the cap."""


def _check_enumerable(n: int, cap: int | None) -> None:
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    effective = DEFAULT_CAP if cap is None else cap
    if effective < 0:
        raise ValueError(f"enumeration cap must be non-negative, got {cap}")
    if n > effective:
        raise CapExceededError(
            f"n={n} exceeds the enumeration cap {effective} "
            f"(2^{n} unrestricted tilings); raise the cap to proceed"
        )


@dataclass(frozen=True, order=True)
class Tiling:
    """An ordered covering of a ruler by tiles of positive integer length.

    The tile-length tuple is the single source of truth; totals, right-end
    positions and hash marks are derived views.  The empty tuple is the
    unique tiling of total 0.
    """

    tiles: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.tiles, tuple):
            object.__setattr__(self, "tiles", tuple(self.tiles))
        if any(t < 1 for t in self.tiles):
            raise ValueError(f"tile lengths must be positive, got {self.tiles}")

    @property
    def total(self) -> int:
        return sum(self.tiles)

    def right_ends(self) -> tuple[int, ...]:
        """Cumulative right-end positions, one per tile."""
        ends = []
        pos = 0
        for t in self.tiles:
            pos += t
            ends.append(pos)
        return tuple(ends)

    def oversized_right_ends(self, k: int) -> tuple[int, ...]:
        """Right ends of the tiles longer than k, in increasing order."""
        ends = []
        pos = 0
        for t in self.tiles:
            pos += t
            if t > k:
                ends.append(pos)
        return tuple(ends)


def tiling_from_marks(marks: Iterable[int]) -> Tiling:
    """Build the tiling delimited by hash marks at the given positions.

    Position 0 is implicitly marked; the tiling ends at the largest mark.
    Marks must be distinct positive integers.
    """
    sorted_marks = sorted(marks)
    if sorted_marks and sorted_marks[0] < 1:
        raise ValueError("mark positions must be >= 1 (position 0 is implicit)")
    if any(a == b for a, b in zip(sorted_marks, sorted_marks[1:])):
        raise ValueError("mark positions must be distinct")
    prev = 0
    tiles = []
    for m in sorted_marks:
        tiles.append(m - prev)
        prev = m
    return Tiling(tuple(tiles))


@dataclass(frozen=True)
class MarkConfig:
    """Mark placement on a reduced ruler of length n_reduced.

    `dashed` are the strictly increasing positions r_1 < ... < r_i chosen
    from 1..n_reduced whose tiles get lengthened; `normal` is any disjoint
    subset of the remaining positions.  Position 0 is always marked.
    """

    n_reduced: int
    dashed: tuple[int, ...] = ()
    normal: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "dashed", tuple(self.dashed))
        object.__setattr__(self, "normal", frozenset(self.normal))
        if self.n_reduced < 0:
            raise ValueError(f"n_reduced must be non-negative, got {self.n_reduced}")
        if any(not 1 <= r <= self.n_reduced for r in self.dashed):
            raise ValueError(f"dashed positions must lie in 1..{self.n_reduced}")
        if any(a >= b for a, b in zip(self.dashed, self.dashed[1:])):
            raise ValueError("dashed positions must be strictly increasing")
        if any(not 1 <= p <= self.n_reduced for p in self.normal):
            raise ValueError(f"normal positions must lie in 1..{self.n_reduced}")
        if self.normal & set(self.dashed):
            raise ValueError("normal and dashed positions must be disjoint")


def iter_tilings(k: int, n: int, cap: int | None = None) -> Iterator[Tiling]:
    """Stream all tilings of total exactly n with tiles in 1..k, in
    lexicographic order of the tile lists."""
    _check_k(k)
    _check_enumerable(n, cap)
    return _gen_exact(k, n, [])


def _gen_exact(k: int, remaining: int, acc: list[int]) -> Iterator[Tiling]:
    if remaining == 0:
        yield Tiling(tuple(acc))
        return
    for t in range(1, min(k, remaining) + 1):
        acc.append(t)
        yield from _gen_exact(k, remaining - t, acc)
        acc.pop()


def enumerate_tilings(k: int, n: int, cap: int | None = None) -> list[Tiling]:
    """All tilings of total exactly n with tiles in 1..k; length f(n)."""
    return list(iter_tilings(k, n, cap))


def iter_bounded_tilings(k: int, n: int, cap: int | None = None) -> Iterator[Tiling]:
    """Stream all tilings of total at most n with tiles in 1..k, lex order."""
    _check_k(k)
    _check_enumerable(n, cap)
    return _gen_bounded(k, n, [])


def _gen_bounded(k: int, budget: int, acc: list[int]) -> Iterator[Tiling]:
    yield Tiling(tuple(acc))  # every prefix is itself a tiling of total <= n
    for t in range(1, min(k, budget) + 1):
        acc.append(t)
        yield from _gen_bounded(k, budget - t, acc)
        acc.pop()


def enumerate_bounded_tilings(k: int, n: int, cap: int | None = None) -> list[Tiling]:
    """All tilings of total at most n with tiles in 1..k; length sum f(0..n)."""
    return list(iter_bounded_tilings(k, n, cap))


def iter_unrestricted(n: int, cap: int | None = None) -> Iterator[Tiling]:
    """Stream the set U: all tilings of total at most n, any tile lengths.

    One tiling per subset of the mark positions 1..n, so exactly 2^n
    tilings; emitted in lexicographic order of the tile lists (which is
    also lexicographic order of the mark subsets).
    """
    _check_enumerable(n, cap)
    return _gen_unrestricted(n, 0, [])


def _gen_unrestricted(n: int, prev_mark: int, acc: list[int]) -> Iterator[Tiling]:
    yield Tiling(tuple(acc))
    for m in range(prev_mark + 1, n + 1):
        acc.append(m - prev_mark)
        yield from _gen_unrestricted(n, m, acc)
        acc.pop()


def enumerate_unrestricted(n: int, cap: int | None = None) -> list[Tiling]:
    return list(iter_unrestricted(n, cap))


def _check_ends(n: int, ends: Iterable[int]) -> tuple[int, ...]:
    ends = tuple(ends)
    if any(not 1 <= j <= n for j in ends):
        raise ValueError(f"end positions must lie in 1..{n}, got {ends}")
    if any(a >= b for a, b in zip(ends, ends[1:])):
        raise ValueError(f"end positions must be strictly increasing, got {ends}")
    return ends


def intersection_count(k: int, n: int, ends: Iterable[int], cap: int | None = None) -> int:
    """Count tilings in U that, for every j in ends, have some tile of
    length > k with its right end at position j.

    The tile need not be the rightmost oversized one.  End sets violating
    the spacing needed for oversized tiles simply count 0; they are legal
    inputs denoting an empty intersection.
    """
    _check_k(k)
    ends = _check_ends(n, ends)
    count = 0
    for tiling in iter_unrestricted(n, cap):
        oversized = tiling.oversized_right_ends(k)
        if all(j in oversized for j in ends):
            count += 1
    return count


def expand_marks(k: int, n: int, cfg: MarkConfig) -> tuple[Tiling, tuple[int, ...]]:
    """Run the mark-expansion construction for ruler length n.

    Tiles the reduced ruler (length n - i*k, i = number of dashed marks)
    using all marks, then replaces each tile ending at a dashed mark with a
    tile k units longer, shifting everything to its right by k.  Returns
    the expanded tiling together with the oversized right ends
    j_l = r_l + l*k; the result lies in the intersection of the U_{j_l}.
    """
    _check_k(k)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    i = len(cfg.dashed)
    if cfg.n_reduced != n - i * k:
        raise ValueError(
            f"inconsistent config: n_reduced={cfg.n_reduced} but n - i*k = {n - i * k} "
            f"for n={n}, k={k}, i={i}"
        )
    dashed = set(cfg.dashed)
    tiles = []
    ends = []
    prev = 0
    for m in sorted(dashed | cfg.normal):
        length = m - prev
        if m in dashed:
            length += k
            ends.append(m + len(ends) * k + k)  # j_l = r_l + l*k, l counted from 1
        tiles.append(length)
        prev = m
    return Tiling(tuple(tiles)), tuple(ends)


@dataclass(frozen=True)
class IntersectionIdentityReport:
    """Outcome of one brute-force check of the intersection-count identity."""

    k: int
    n: int
    i: int
    lhs: int  # sum of |U_{j_1} ∩ ... ∩ U_{j_i}| over all end tuples
    rhs: int  # C(n-ik, i) * 2^(n-i(k+1))
    configurations: int  # number of mark configurations fed to expand_marks
    injective: bool
    image_matches: bool

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.image_matches
            and self.lhs == self.rhs
            and self.configurations == self.rhs
        )


def verify_intersection_identity(
    k: int, n: int, i: int, cap: int | None = None
) -> IntersectionIdentityReport:
    """Brute-force both sides of the intersection-count identity for (k, n, i)
    and check that the mark-expansion construction is a bijection.

    The left side is the sum of intersection counts over all end tuples
    j_1 < ... < j_i; it is accumulated in a single sweep over U (each
    tiling contributes one pair per i-subset of its oversized right ends),
    which keeps full grids at desk scale inside a minutes budget.  The
    image of expand_marks over all mark configurations must hit exactly
    those (ends, tiling) pairs, with no two configurations colliding.
    """
    _check_k(k)
    _check_enumerable(n, cap)
    max_i = n // (k + 1)
    if i < 1 or i > max_i:
        raise ValueError(f"i must lie in 1..{max_i} for k={k}, n={n}, got {i}")

    n_reduced = n - i * k
    rhs = binomial(n_reduced, i) << (n_reduced - i)

    # Disjoint union counted by the left side, as (ends, tiling) pairs.
    union_pairs: set[tuple[tuple[int, ...], Tiling]] = set()
    for tiling in iter_unrestricted(n, cap):
        oversized = tiling.oversized_right_ends(k)
        if len(oversized) >= i:
            for ends in combinations(oversized, i):
                union_pairs.add((ends, tiling))
    lhs = len(union_pairs)

    # Image of the construction over every mark configuration.
    image: set[tuple[tuple[int, ...], Tiling]] = set()
    configurations = 0
    injective = True
    positions = range(1, n_reduced + 1)
    for dashed in combinations(positions, i):
        free = [p for p in positions if p not in dashed]
        for bits in range(1 << len(free)):
            normal = frozenset(p for idx, p in enumerate(free) if bits >> idx & 1)
            tiling, ends = expand_marks(k, n, MarkConfig(n_reduced, dashed, normal))
            configurations += 1
            pair = (ends, tiling)
            if pair in image:
                injective = False
            image.add(pair)

    return IntersectionIdentityReport(
        k=k,
        n=n,
        i=i,
        lhs=lhs,
        rhs=rhs,
        configurations=configurations,
        injective=injective,
        image_matches=image == union_pairs,
    )


def count_by_rightmost_tile(k: int, n: int, cap: int | None = None) -> list[tuple[int, int]]:
    """Partition the tilings of total n by the length of their last tile.

    Returns (length, count) pairs in increasing length; the count for
    length l equals f(n - l), so the counts re-derive the recurrence.
    """
    _check_k(k)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_enumerable(n, cap)
    counts: dict[int, int] = {}
    for tiling in iter_tilings(k, n, cap):
        last = tiling.tiles[-1]  # n >= 1, so no tiling is empty
        counts[last] = counts.get(last, 0) + 1
    return sorted(counts.items())
