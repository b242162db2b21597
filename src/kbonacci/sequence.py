"""k-bonacci numbers and their partial sums, straight from the recurrence.

The k-bonacci sequence is defined by f(n) = 0 for n < 0, f(0) = 1, and
f(n) = f(n-1) + f(n-2) + ... + f(n-k) for n >= 1.  k = 2 gives the
Fibonacci numbers with the index shifted by one.  Everything here is exact
integer arithmetic; values grow roughly like 2^n, so Python's native big
integers carry them without overflow at any index.

This module is the baseline that the engines are validated against, and
it imports nothing from the package.  `values_from` and `sums_from` walk
the defining recurrence and take non-negative indices only; `engines`,
the one entry that computes f(n) and S(n) by engine name, reads an index
n < 0 as f(n) = 0.  The window engines of its registry, recurrence and
direct, take their heads from `values`.  Every engine's range past its
first k indices goes on by the tail in `engines`, which nothing here
calls, so the tail is checked against `values_from` and `sums_from`.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterator
from itertools import accumulate, islice

# Largest n that the tiling laboratory enumerates unless a call raises its
# cap (`tilings._check_enumerable`).  It is kept with the input bounds, so
# that the CLI's help reads it without importing the laboratory.
DEFAULT_CAP = 24


def _check_int(name: str, value: int) -> None:
    """value is exactly an int (bool is an int subclass, and k=True must not
    read as k=1) of at most sys.maxsize in size: every k, index and range
    stop is, since no value at a larger one fits in memory."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not -sys.maxsize <= value <= sys.maxsize:
        raise ValueError(f"{name} must be at most sys.maxsize = {sys.maxsize} in size, got {value}")


def _check_k(k: int) -> None:
    _check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_n(n: int) -> None:
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def _check_index(n: int) -> None:
    """n is an index below sys.maxsize: an engine computes index n as the
    range n..n, whose stop n + 1 is bounded like every other."""
    _check_int("n", n)
    if n == sys.maxsize:
        raise ValueError(f"n must be below sys.maxsize = {sys.maxsize}, got {n}")


def _count(k: int, start: int, stop: int) -> int:
    """The number of indices start..stop-1, once k, start and stop pass
    the checks every non-negative range generator makes."""
    _check_k(k)
    _check_n(start)
    _check_int("stop", stop)
    return max(stop - start, 0)


def _after(window: deque) -> Iterator[int]:
    """Yield the terms after window of f(n) = f(n-1) + ... + f(n-k),
    k = window.maxlen, where window holds the last min(n, k) terms, f(0)
    among them, and the terms before it are 0."""
    k = window.maxlen
    total = sum(window)  # the next term
    while True:
        value = total
        if len(window) == k:
            total -= window[0]  # about to fall out of the window
        total += value
        window.append(value)
        yield value


def values(k: int) -> Iterator[int]:
    """Yield f(0), f(1), f(2), ... for the given window length k.

    Keeps only the last k values plus a running window sum, so producing
    the first n terms costs O(n) big-integer additions and O(k) memory.
    """
    _check_k(k)
    yield 1
    yield from _after(deque([1], maxlen=k))


def values_from(k: int, start: int, stop: int) -> Iterator[int]:
    """Yield f(n) for n = start..stop-1.

    One pass of `values`: each later index costs one window step.
    """
    yield from islice(values(k), start, start + _count(k, start, stop))


def sums_from(k: int, start: int, stop: int) -> Iterator[int]:
    """Yield S(n) for n = start..stop-1, S(n) = f(0) + ... + f(n)."""
    yield from islice(accumulate(values(k)), start, start + _count(k, start, stop))


def kbonacci_prefix(k: int, n: int) -> list[int]:
    """Return [f(0), f(1), ..., f(n)]."""
    _check_k(k)
    _check_n(n)
    return list(islice(values(k), n + 1))
