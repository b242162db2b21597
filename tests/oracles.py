"""Independent reference implementations the tests check against.

Everything here restates the definitions as naively as possible and shares
no code with the package: memoized recursion for the sequence, an additive
Pascal triangle for binomials, and itertools-driven subset enumeration for
the hash-mark constructions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def naive_value(k: int, n: int) -> int:
    @lru_cache(maxsize=None)
    def f(m: int) -> int:
        if m < 0:
            return 0
        if m == 0:
            return 1
        return sum(f(m - i) for i in range(1, k + 1))

    return f(n)


def naive_prefix(k: int, n: int) -> list[int]:
    return [naive_value(k, i) for i in range(n + 1)]


def naive_partial_sum(k: int, n: int) -> int:
    return sum(naive_prefix(k, n))


def pascal_rows(limit: int) -> list[list[int]]:
    """Rows 0..limit of Pascal's triangle, built purely by addition."""
    rows = [[1]]
    for _ in range(limit):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def subset_tilings(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(marks, tile lengths) for every subset of mark positions {1..n}."""
    out = []
    for r in range(n + 1):
        for marks in combinations(range(1, n + 1), r):
            padded = (0,) + marks
            tiles = tuple(padded[i + 1] - padded[i] for i in range(len(marks)))
            out.append((marks, tiles))
    return out


def oversized_ends(tiles: tuple[int, ...], k: int) -> set[int]:
    ends, pos = set(), 0
    for t in tiles:
        pos += t
        if t > k:
            ends.add(pos)
    return ends


def naive_intersection_count(k: int, n: int, ends) -> int:
    wanted = set(ends)
    return sum(1 for _, tiles in subset_tilings(n) if wanted <= oversized_ends(tiles, k))


def naive_expand(k: int, dashed, normal) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(oversized ends, tiles) of the mark expansion, from its definition:
    tile the reduced ruler between all marks, then lengthen each tile that
    ends at a dashed mark by k."""
    ends, tiles, prev, pos = [], [], 0, 0
    for m in sorted(set(dashed) | set(normal)):
        length = m - prev + (k if m in dashed else 0)
        pos += length
        tiles.append(length)
        if m in dashed:
            ends.append(pos)
        prev = m
    return tuple(ends), tuple(tiles)


def naive_identity_sides(k: int, n: int, i: int):
    """(union, image) of the intersection identity at (k, n, i) as
    (ends, tiles) pairs: the union as a set from every i-subset of each
    tiling's oversized ends, the image as a list with one entry per mark
    configuration on the reduced ruler of length n - ik."""
    union = {
        (ends, tiles)
        for _, tiles in subset_tilings(n)
        for ends in combinations(sorted(oversized_ends(tiles, k)), i)
    }
    n_reduced = n - i * k
    positions = range(1, n_reduced + 1)
    image = []
    for dashed in combinations(positions, i):
        free = [p for p in positions if p not in dashed]
        for r in range(len(free) + 1):
            for normal in combinations(free, r):
                image.append(naive_expand(k, dashed, normal))
    return union, image
