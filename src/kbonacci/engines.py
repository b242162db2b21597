"""The engine registry: every engine is named once, in the table of the
quantity it computes.

`_VALUE_DISPATCH` holds the engines of f(n) and `_SUM_DISPATCH` those of
S(n) = f(0) + ... + f(n), keyed by the names the CLI accepts; the first
entry of each table is its default.  Each value is the engine module's own
range generator, called as stream(k, start, stop) for the indices
start..stop-1, stop exclusive as in range(): `compute_*` and `bench` pass
n+1, `eval` and `sum` the end of their --n range.  It computes the
range's first k+1 indices at most by its own method:

* recurrence and direct: the window sums (plus a running total) of the
  recurrence, walked from index 0;
* matrix: one powering to the residue x^n mod x^k - x^(k-1) - ... - 1 of
  the first index, then per index the residue times x, a shift of its k
  coefficients and one reduction by x^k = 1 + x + ... + x^(k-1) (at k = 1
  the values are 1 and the sums n + 1, and below k they are powers of
  two).  A range of one index powers only to x^(n // 2) and finishes with
  one k-term inner product over the next steps;
* dunkel and dunkel-term: the first index's row, folded as it is made,
  then the sums of the next k indices at most as one block, evaluated
  column by column (see `closed_form`); dunkel-term takes its values as
  the differences f(n) = S(n) - S(n-1) of consecutive sums.

Every later index, whatever the engine, is one shift and one
subtraction, t(n+1) = 2 t(n) - t(n-k), over the last k+1 values: the one
tail of every range, `sequence._continued`.  The window and matrix
engines cut their endless heads at k+1 indices; the closed forms need
the count to size their block.

Each generator carries its cost model as stream.cost(k, n): the number
of big-integer operations one index n takes, which `bench` reports as
`ops`.  It is the count of additions for the window engines, the summand
count scaled for the closed forms, and for matrix the multiplications
that one index takes, `matrix_power.matrix_cost`: per squaring of the
powering to x^(n // 2), whose squaring count also bounds that loop,
k(k+1)/2 below the Toom-Cook switch and 2k - 1 past it, plus k for the
inner product, and none where x^n needs no squaring.  Every model is
arithmetic on (k, n) and runs nothing.

Each generator also carries its text range generator as stream.text:
the same head and the same tail, which converts the k+1 head values to
Decimal once the range's first record is out, if the range steps past
them, and steps the rest there (see `sequence._continued`); matrix also
finishes large residues in Decimal (see `matrix_power`).  A range of at
most k+1 indices converts nothing.  Every text generator prints through
one renderer, `render._texts`, which prints a Decimal with str() and an
int by the subquadratic split; a stream without .text (a stand-in put in
a table) has its ints passed through it.  The int generators and
`compute_*` never convert to Decimal.

Every reader goes through this module: `eval`, `sum` and `bench` take
their engine names from the tables, `eval` and `sum` print what
`stream_value_texts`/`stream_sum_texts` yield, `bench` times the first
text of the same call, and the `engines` suite of `verify` checks every
registered engine.  `compute_value` and `compute_sum` are the one entry
for a single index, `stream_*` for a range.  One input domain holds for
every engine, and only this module holds it: every value engine reads
n < 0 as f(n) = 0, which this module yields itself, while every sum
engine rejects n < 0.  Every module range generator checks k, start and
stop by `sequence._count`, which rejects a negative start, so no engine
module reads n < 0 as 0.  This module checks start and stop first, and k
too for a value engine, whose generator sees no negative start; it
reports a stop past sys.maxsize as the last index, stop - 1, that the
caller asked for, so the largest index is sys.maxsize - 1.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, repeat

from .closed_form import (
    closed_value_texts_from,
    closed_values_from,
    dunkel_sum_texts_from,
    dunkel_sums_from,
)
from .matrix_power import (
    matrix_cost,
    matrix_sum_texts_from,
    matrix_sums_from,
    matrix_value_texts_from,
    matrix_values_from,
)
from .render import _texts
from .sequence import (
    _check_index,
    _check_int,
    _check_k,
    sum_texts_from,
    sums_from,
    value_texts_from,
    values_from,
)


def _costed(stream, cost: Callable[[int, int], int], text):
    """stream, with cost as its cost model and text as its own text range
    generator."""
    stream.cost = cost
    stream.text = text
    return stream


def _text_stream(stream):
    """stream's text range generator: its own, or, for a stream that has
    none, its ints through the renderer."""
    text = getattr(stream, "text", None)
    if text is not None:
        return text
    return lambda *args: _texts(stream(*args))


def _terms(k: int, n: int) -> int:
    """Summands of the alternating sum at n."""
    return n // (k + 1) + 1


_VALUE_DISPATCH = {
    "recurrence": _costed(values_from, lambda k, n: 2 * n, value_texts_from),
    "dunkel-term": _costed(closed_values_from, lambda k, n: 4 * _terms(k, n), closed_value_texts_from),
    "matrix": _costed(matrix_values_from, matrix_cost, matrix_value_texts_from),
}

_SUM_DISPATCH = {
    "direct": _costed(sums_from, lambda k, n: 3 * n, sum_texts_from),
    "dunkel": _costed(dunkel_sums_from, lambda k, n: 2 * _terms(k, n), dunkel_sum_texts_from),
    "matrix": _costed(matrix_sums_from, matrix_cost, matrix_sum_texts_from),
}

VALUE_NAMES = tuple(_VALUE_DISPATCH)
SUM_NAMES = tuple(_SUM_DISPATCH)
# The suites of `verify`, in the order it runs them by default.  They are
# named here, with the engines, so that the CLI's help reads them without
# importing `verify`.
SUITE_NAMES = ("engines", "closed-form", "tilings", "hash-marks", "inclusion-exclusion", "bijection")


def _lookup(table: dict, engine: str):
    try:
        return table[engine]
    except KeyError:
        raise ValueError(f"engine {engine!r} is not one of {sorted(table)}") from None


def _check_range(start: int, stop: int) -> None:
    """start and stop as the range generators check them, except that a stop
    past sys.maxsize is reported as the last index, n = stop - 1, that the
    caller asked for."""
    _check_int("n", start)
    if type(stop) is int and stop > sys.maxsize:
        _check_index(stop - 1)
    _check_int("stop", stop)


def _values_from(k: int, start: int, stop: int, engine: str, text: bool) -> Iterator:
    stream = _lookup(_VALUE_DISPATCH, engine)
    _check_k(k)
    _check_range(start, stop)
    if text:
        stream = _text_stream(stream)
    if start < 0:
        return chain(repeat("0" if text else 0, min(stop, 0) - start), stream(k, 0, stop))
    return stream(k, start, stop)


def stream_values(k: int, start: int, stop: int, engine: str = "recurrence") -> Iterator[int]:
    """f(n) for n = start..stop-1 through the named engine; f(n) = 0 for n < 0."""
    return _values_from(k, start, stop, engine, False)


def stream_value_texts(k: int, start: int, stop: int, engine: str = "recurrence") -> Iterator[str]:
    """stream_values as exact decimal strings."""
    return _values_from(k, start, stop, engine, True)


def _sums_from(k: int, start: int, stop: int, engine: str, text: bool) -> Iterator:
    stream = _lookup(_SUM_DISPATCH, engine)
    _check_k(k)
    _check_range(start, stop)
    if text:
        stream = _text_stream(stream)
    return stream(k, start, stop)


def stream_sums(k: int, start: int, stop: int, engine: str = "direct") -> Iterator[int]:
    """S(n) for n = start..stop-1 through the named engine, S(n) = f(0) + ... + f(n)."""
    return _sums_from(k, start, stop, engine, False)


def stream_sum_texts(k: int, start: int, stop: int, engine: str = "direct") -> Iterator[str]:
    """stream_sums as exact decimal strings."""
    return _sums_from(k, start, stop, engine, True)


def compute_value(k: int, n: int, engine: str = "recurrence") -> int:
    """f(n) through the named engine."""
    return next(stream_values(k, n, n + 1, engine))


def compute_sum(k: int, n: int, engine: str = "direct") -> int:
    """f(0) + ... + f(n) through the named engine."""
    return next(stream_sums(k, n, n + 1, engine))


def _ops(cost, k: int, n: int) -> int:
    return cost(k, n) if n >= 0 else 0


def bench_plan(
    names: Iterable[str], k: int, n: int
) -> tuple[Callable[..., Iterator[str]], dict[str, Callable[[], int]]]:
    """The text range generator that `eval` or `sum` print the names'
    quantity through, and for each engine name a call of its cost model at
    n (0 at a value index n < 0, which no engine computes).

    The names must all lie in one table: values when every name is a value
    engine (so matrix alone computes f(n)), else sums.
    """
    names = set(names)
    unknown = names - _VALUE_DISPATCH.keys() - _SUM_DISPATCH.keys()
    if unknown:
        raise ValueError(f"unknown engine(s) {sorted(unknown)}")
    if names <= _VALUE_DISPATCH.keys():
        table, texts = _VALUE_DISPATCH, stream_value_texts
    elif names <= _SUM_DISPATCH.keys():
        table, texts = _SUM_DISPATCH, stream_sum_texts
    else:
        raise ValueError("cannot mix value engines with partial-sum engines in one bench run")
    return texts, {engine: partial(_ops, table[engine].cost, k, n) for engine in names}
