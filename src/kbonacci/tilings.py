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
`identity_report` checks both the count identity and that the
construction is a bijection, by brute force, from one sweep of U by
`oversized_members` that serves every i of a (k, n) cell.  The module
shares no code with the closed forms it checks: it takes only its input
checks and cap from `sequence`, and the right side's binomial from
`math.comb`.

The exact, bounded and unrestricted enumerations are one depth-first walk
of the tree of tilings of total at most n, in which a child adds one tile.
The subtree below a node depends only on the room the node has left, so
the walk stops at a node with at most _TABLE_ROOM left and reads that
subtree from a suffix table, built once per call by the same child rule.
Every tiling is a walked prefix joined to a suffix from the table of its
room.  exact_tiles, bounded_tiles and unrestricted_tiles join them as
tuples; subtrees hands the tables and the walk to a reader that renders
each table once, as the CLI's listing does.

Inside the module a tiling is a plain tuple of tile lengths, and a member
of U is an int whose bit p is set when position p carries a mark: the
members are M = (s << 1) | 1 for s in range(2^n), as position 0 is always
marked.  The tile ending at mark j is oversized when none of the k
positions below j is marked, so the oversized right ends of M are the bits
of M & ~(M<<1 | ... | M<<k) & ~1.  Mark expansion works on bits too: mark
p of the reduced ruler moves right by l*k, where l counts the dashed
positions at or left of p.  So the dashed r_l lands on the end
j_l = r_l + l*k, and the free positions between r_l and r_(l+1) form a
segment that shifts by l*k as one block.  Shifting the free positions
once per choice of dashed marks and walking the submasks of the result
yields the image of every configuration.  The public functions take and
hand out tilings as the same tuples.

Everything here is exponential in n by design; the enumeration cap keeps
calls at desk scale and is overridable per call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, combinations
from math import comb
from operator import sub

from .sequence import DEFAULT_CAP, _check_int, _check_k, _check_n

Tiles = tuple[int, ...]


class CapExceededError(ValueError):
    """Raised when an exhaustive operation is asked to exceed the cap."""


def _check_enumerable(n: int, cap: int | None) -> None:
    _check_n(n)
    if cap is not None:
        _check_int("cap", cap)
    effective = DEFAULT_CAP if cap is None else cap
    if effective < 0:
        raise ValueError(f"enumeration cap must be non-negative, got {cap}")
    if n > effective:
        raise CapExceededError(
            f"n={n} exceeds the enumeration cap {effective} "
            f"(2^{n} unrestricted tilings); raise the cap to proceed"
        )


def exact_tiles(k: int, n: int, cap: int | None = None) -> Iterator[Tiles]:
    """Stream the tile tuples of all tilings of total exactly n with tiles
    in 1..k, in lexicographic order."""
    _check_k(k)
    _check_enumerable(n, cap)
    return _tiles(k, n, False)


def bounded_tiles(k: int, n: int, cap: int | None = None) -> Iterator[Tiles]:
    """Stream the tile tuples of all tilings of total at most n with tiles
    in 1..k, in lexicographic order."""
    _check_k(k)
    _check_enumerable(n, cap)
    return _tiles(k, n, True)


def subtrees(
    k: int, n: int, bounded: bool = False, cap: int | None = None
) -> tuple[list[list[Tiles]], Iterator[tuple[list[int], int]]]:
    """The tilings of bounded_tiles(k, n, cap) when bounded, else of
    exact_tiles(k, n, cap), as (tables, walk): walk yields (prefix, room)
    pairs, and the tilings in order are prefix + suffix for each suffix
    in tables[room] of each pair in turn.

    prefix is a list that the walk goes on to change: read it before the
    next pair.  A reader that renders tilings renders each table once.
    """
    _check_k(k)
    _check_enumerable(n, cap)
    return _walk(k, n, bounded)


# A node with at most this much room left is completed from a table, not
# walked.  Measured on the lab-grid commands of seeds 1-2 (CPython 3.11.7,
# 2-vCPU shared host, in-process, best of 5 per command, summed): 159-160 ms
# at 8, 163 ms at 6, 167 ms at 10 and 185-186 ms at 12, against 238-245 ms
# for a walk to every tiling.  A deeper table costs more to build and
# render than the walking it saves.
_TABLE_ROOM = 8


def _walk(k: int, n: int, bounded: bool) -> tuple[list[list[Tiles]], Iterator[tuple[list[int], int]]]:
    depth = min(n, _TABLE_ROOM)
    tables = _suffix_tables(k, depth, bounded)
    if bounded:  # a node with more room is a tiling on its own
        tables += [[()]] * (n - depth)
    return tables, _subtrees(k, n, bounded, depth)


def _subtrees(k: int, n: int, bounded: bool, depth: int) -> Iterator[tuple[list[int], int]]:
    # Depth-first preorder of the tree of tilings of total <= n with tiles
    # in 1..k: a child adds one tile, and children come in increasing order
    # of that tile, so the preorder, and any subsequence of it, is in
    # lexicographic order.  A node with room left has the child 1, so the
    # leaves are the tilings of total exactly n: bounded yields every node,
    # exact only the leaves.  The walk yields a node with at most depth room
    # left and skips its subtree, which the suffix table of that room holds;
    # bounded also yields each node above it, whose table is [()].
    tiles: list[int] = []
    room = n
    while True:
        if room > depth:
            if bounded:
                yield tiles, room
            tiles.append(1)
            room -= 1
            continue
        yield tiles, room
        while tiles:  # back up to the last tile that can grow by one
            t = tiles.pop()
            room += t
            if t < k and t < room:
                tiles.append(t + 1)
                room -= t + 1
                break
        else:
            return


def _suffix_tables(k: int, depth: int, bounded: bool) -> list[list[Tiles]]:
    """For each room r <= depth, the tile tuples that complete a node with
    r left, in preorder: by the walk's child rule, the node itself () when
    bounded, then for each tile t in 1..min(k, r) the suffixes of room r - t
    after t."""
    tables: list[list[Tiles]] = [[()]]
    for r in range(1, depth + 1):
        table: list[Tiles] = [()] if bounded else []
        for t in range(1, min(k, r) + 1):
            table += map((t,).__add__, tables[r - t])
        tables.append(table)
    return tables


def _tiles(k: int, n: int, bounded: bool) -> Iterator[Tiles]:
    # a generator, not the chain itself, so that a tracer that counts what
    # a generator yields still counts each tiling
    tables, walk = _walk(k, n, bounded)
    yield from chain.from_iterable(map(tuple(prefix).__add__, tables[room]) for prefix, room in walk)


def unrestricted_tiles(n: int, cap: int | None = None) -> Iterator[Tiles]:
    """Stream the tile tuples of the set U: all tilings of total at most n,
    any tile lengths.

    One tiling per subset of the mark positions 1..n, so exactly 2^n
    tilings; emitted in lexicographic order of the tile lists (which is
    also lexicographic order of the mark subsets).
    """
    _check_enumerable(n, cap)
    return _tiles(n, n, True)  # no tile of a tiling of total <= n exceeds n


def _mask(positions: Iterable[int]) -> int:
    return sum(1 << p for p in positions)


def _bits(mask: int) -> list[int]:
    """The set bits of mask as single-bit ints, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _positions(mask: int) -> tuple[int, ...]:
    return tuple(b.bit_length() - 1 for b in _bits(mask))


def _ends_and_marks(k: int, n: int) -> Iterator[tuple[int, int]]:
    """(oversized right ends, marks) as bitmasks, for every member of U in
    increasing order of marks."""
    # cover |= cover << step over these steps ORs marks << 0..w-1 together,
    # w = min(k, n + 1): no wider shift leaves a mark inside the ruler
    w = min(k, n + 1)
    steps = []
    width = 1
    while width < w:
        steps.append(min(width, w - width))
        width += steps[-1]
    for marks in range(1, 2 << n, 2):
        cover = marks
        for step in steps:
            cover |= cover << step
        yield marks & ~(cover << 1 | 1), marks


def _lengthen(k: int, dashed: tuple[int, ...], marks: int) -> int:
    """Move each mark p of the reduced ruler right by l*k, where l counts
    the dashed positions at or left of p."""
    for r in reversed(dashed):
        low = (1 << r) - 1
        marks = (marks & low) | ((marks & ~low) << k)
    return marks


def expand_marks(
    k: int, n: int, dashed: Iterable[int], normal: Iterable[int] = ()
) -> tuple[Tiles, tuple[int, ...]]:
    """Run the mark-expansion construction for ruler length n.

    `dashed` are the strictly increasing positions r_1 < ... < r_i on the
    reduced ruler of length n - i*k whose tiles get lengthened; `normal` is
    any set of the remaining positions 1..n - i*k.  Tiles the reduced ruler
    using all marks, then replaces each tile ending at a dashed mark with a
    tile k units longer, shifting everything to its right by k.  Returns
    the expanded tiles together with the oversized right ends
    j_l = r_l + l*k; the result lies in the intersection of the U_{j_l}.
    """
    _check_k(k)
    _check_n(n)
    dashed = tuple(dashed)
    normal = frozenset(normal)
    for p in (*dashed, *normal):
        _check_int("mark position", p)
    n_reduced = n - len(dashed) * k
    for name, positions in (("dashed", dashed), ("normal", normal)):
        if any(not 1 <= p <= n_reduced for p in positions):
            raise ValueError(f"{name} positions must lie in 1..n - i*k = {n_reduced}, i={len(dashed)}")
    if any(a >= b for a, b in zip(dashed, dashed[1:])):
        raise ValueError("dashed positions must be strictly increasing")
    if normal.intersection(dashed):
        raise ValueError("normal and dashed positions must be disjoint")
    ends = _lengthen(k, dashed, _mask(dashed))
    marks = _positions(_lengthen(k, dashed, _mask(normal)) | ends)
    return tuple(map(sub, marks, (0, *marks))), _positions(ends)


class IntersectionIdentityReport(
    namedtuple("IntersectionIdentityReport", "k n i lhs rhs configurations injective image_matches")
):
    """Outcome of one brute-force check of the intersection-count identity.

    lhs is the sum of |U_{j_1} ∩ ... ∩ U_{j_i}| over all end tuples, rhs
    is C(n-ik, i) * 2^(n-i(k+1)), and configurations is the number of mark
    configurations expanded.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.image_matches
            and self.lhs == self.rhs
            and self.configurations == self.rhs
        )


def oversized_members(k: int, n: int, cap: int | None = None) -> dict[int, list[int]]:
    """The members of U that have an oversized tile, from one sweep of U.

    Maps each oversized-ends bitmask (bit j set when a tile longer than k
    ends at j) to the marks bitmasks of the members with exactly those
    oversized ends, in increasing order.  Members without an oversized
    tile are left out.
    """
    _check_k(k)
    _check_enumerable(n, cap)
    members: dict[int, list[int]] = {}
    for ends, marks in _ends_and_marks(k, n):
        if ends:
            members.setdefault(ends, []).append(marks)
    return members


def _check_i(k: int, n: int, i: int) -> None:
    _check_int("i", i)
    max_i = n // (k + 1)
    if i < 1 or i > max_i:
        raise ValueError(f"i must lie in 1..{max_i} for k={k}, n={n}, got {i}")


def identity_report(
    k: int, n: int, i: int, members: dict[int, list[int]]
) -> IntersectionIdentityReport:
    """Brute-force both sides of the intersection-count identity for
    (k, n, i) and check that the mark-expansion construction is a bijection.

    members must be oversized_members(k, n), one sweep of U for every i of
    the cell.  Both sides are sets of (ends, marks) pairs, each packed into
    the int ends << (n+1) | marks.  The left side, whose size is the sum of
    the intersection counts, takes every i-subset of each member's
    oversized ends; the image lengthens every mark configuration, and must
    equal the left side with no two configurations colliding.
    """
    _check_k(k)
    _check_n(n)
    _check_i(k, n, i)
    n_reduced = n - i * k
    rhs = comb(n_reduced, i) << (n_reduced - i)
    width = n + 1

    # Disjoint union counted by the left side.
    union = {
        ends | marks
        for found, group in members.items()
        if found.bit_count() >= i
        for ends in map(sum, combinations(_bits(found << width), i))
        for marks in group
    }

    # Image of the construction: the submasks of the shifted free
    # positions are the lengthened normal marks of every configuration.
    full = (2 << n_reduced) - 2  # positions 1..n_reduced
    image: set[int] = set()
    configurations = 0
    for dashed in combinations(range(1, n_reduced + 1), i):
        chosen = _mask(dashed)
        ends = _lengthen(k, dashed, chosen)
        pairs = [ends << width | ends | 1]
        for bit in _bits(_lengthen(k, dashed, full ^ chosen)):
            pairs += [pair | bit for pair in pairs]
        configurations += len(pairs)
        image.update(pairs)

    return IntersectionIdentityReport(
        k=k,
        n=n,
        i=i,
        lhs=len(union),
        rhs=rhs,
        configurations=configurations,
        injective=len(image) == configurations,
        image_matches=image == union,
    )


def count_by_rightmost_tile(k: int, n: int, cap: int | None = None) -> list[tuple[int, int]]:
    """Partition the tilings of total n by the length of their last tile.

    Returns (length, count) pairs in increasing length; the count for
    length l equals f(n - l), so the counts re-derive the recurrence.
    """
    _check_k(k)
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts: dict[int, int] = {}
    for tiles in exact_tiles(k, n, cap):
        last = tiles[-1]  # n >= 1, so no tiling is empty
        counts[last] = counts.get(last, 0) + 1
    return sorted(counts.items())
