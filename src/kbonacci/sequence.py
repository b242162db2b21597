"""k-bonacci numbers and their partial sums, straight from the recurrence.

The k-bonacci sequence is defined by f(n) = 0 for n < 0, f(0) = 1, and
f(n) = f(n-1) + f(n-2) + ... + f(n-k) for n >= 1.  k = 2 gives the
Fibonacci numbers with the index shifted by one.  Everything here is exact
integer arithmetic; values grow roughly like 2^n, so Python's native big
integers carry them without overflow at any index.

This module is the baseline engine: the closed-form and matrix engines in
the sibling modules are validated against it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator


def _check_int(name: str, value: int) -> None:
    # exactly int: bool is an int subclass, and k=True must not read as k=1
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_k(k: int) -> None:
    _check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_n(n: int) -> None:
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def values(k: int) -> Iterator[int]:
    """Yield f(0), f(1), f(2), ... for the given window length k.

    Keeps only the last k values plus a running window sum, so producing
    the first n terms costs O(n) big-integer additions and O(k) memory.
    """
    _check_k(k)
    window: deque[int] = deque(maxlen=k)
    total = 0  # sum of the values currently in the window
    n = 0
    while True:
        value = 1 if n == 0 else total
        if len(window) == k:
            total -= window[0]  # about to fall out of the window
        total += value
        window.append(value)
        yield value
        n += 1


def kbonacci_recurrence(k: int, n: int) -> int:
    """Return f(n) for window length k; n may be negative (value 0)."""
    _check_k(k)
    _check_int("n", n)
    if n < 0:
        return 0
    return next(islice(values(k), n, None))


def kbonacci_prefix(k: int, n: int) -> list[int]:
    """Return [f(0), f(1), ..., f(n)]."""
    _check_k(k)
    _check_n(n)
    return list(islice(values(k), n + 1))


def partial_sum_direct(k: int, n: int) -> int:
    """Return f(0) + f(1) + ... + f(n) by direct accumulation."""
    _check_k(k)
    _check_n(n)
    return sum(islice(values(k), n + 1))
