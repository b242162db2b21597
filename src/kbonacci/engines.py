"""Engine selection: one enum naming the four evaluation strategies.

Used by the CLI and by cross-validation; every engine must produce
byte-identical values for identical inputs.

Each engine is a range generator: it reaches its first index by its own
method, then steps one index at a time, and its single-index function is
the generator's first item.  The steps:

* recurrence: one more window sum (plus a running total for sums);
* matrix: the residue x^n mod x^(k+1) - 2x^k + 1 times x, a shift of its
  coefficients and one reduction by x^(k+1) = 2x^k - 1;
* dunkel and dunkel-term: the binomial row C(n-jk, j) moved to n+1 by
  C(m+1, j) = C(m, j) (m+1) / (m+1-j), then folded by Horner's rule.

A range A..B thus costs one evaluation at A plus B-A steps (the closed
forms, which fold their first row as it is made, build it once more to
keep it for the steps).
"""

from __future__ import annotations

import enum
from typing import Iterator

from .closed_form import closed_values_from, dunkel_sums_from, partial_sum_dunkel_extended
from .matrix_power import matrix_sums_from, matrix_values_from
from .sequence import sums_from, values_from


class Engine(enum.Enum):
    RECURRENCE = "recurrence"
    DUNKEL = "dunkel"            # alternating closed form for partial sums
    DUNKEL_TERM = "dunkel-term"  # per-term closed form for single values
    MATRIX = "matrix"


_VALUE_DISPATCH = {
    Engine.RECURRENCE: values_from,
    Engine.DUNKEL_TERM: closed_values_from,
    Engine.MATRIX: matrix_values_from,
}

_SUM_DISPATCH = {
    Engine.RECURRENCE: sums_from,
    Engine.DUNKEL: dunkel_sums_from,
    Engine.MATRIX: matrix_sums_from,
}


def stream_values(k: int, start: int, engine: Engine = Engine.RECURRENCE) -> Iterator[int]:
    """f(start), f(start+1), ... through the chosen engine."""
    try:
        fn = _VALUE_DISPATCH[engine]
    except KeyError:
        raise ValueError(f"engine {engine.value!r} computes partial sums, not single values") from None
    return fn(k, start)


def stream_sums(k: int, start: int, engine: Engine = Engine.RECURRENCE) -> Iterator[int]:
    """S(start), S(start+1), ... through the chosen engine, S(n) = f(0) + ... + f(n)."""
    try:
        fn = _SUM_DISPATCH[engine]
    except KeyError:
        raise ValueError(f"engine {engine.value!r} computes single values, not partial sums") from None
    return fn(k, start)


def compute_value(k: int, n: int, engine: Engine = Engine.RECURRENCE) -> int:
    """f(n) through the chosen engine."""
    return next(stream_values(k, n, engine))


def compute_sum(k: int, n: int, engine: Engine = Engine.RECURRENCE, m: int | None = None) -> int:
    """f(0) + ... + f(n) through the chosen engine.

    An explicit upper limit m selects the extended closed form and is only
    meaningful with the dunkel engine.
    """
    if m is not None:
        if engine is not Engine.DUNKEL:
            raise ValueError("an explicit limit m requires the dunkel engine")
        return partial_sum_dunkel_extended(k, n, m)
    return next(stream_sums(k, n, engine))
