"""The engine registry: every engine is named once, in the table of the
quantity it computes, as its head and its cost model, and every range of
every engine is assembled here.

`_VALUE_DISPATCH` holds the engines of f(n) and `_SUM_DISPATCH` those of
S(n) = f(0) + ... + f(n), keyed by the names the CLI accepts; the first
entry of each table is its default.  Each entry is built by one factory,
`_engine(head, cost, constant)`, and is a range generator,
stream(k, start, stop, text=False), for the indices start..stop-1, stop
exclusive as in range(): `compute_*` and `bench` pass n+1, `eval` and
`sum` the end of their --n range.

An engine's head, head(k, start, count, text), yields the values from
start on, of which the stream pulls the range's first k at most, each
by the engine's own method: `sequence.values` for recurrence and direct
(the latter accumulated), `closed_form._closed_head` for dunkel and
dunkel-term, and `matrix_power._head` for matrix.  Every later index,
whatever the engine, comes from the one tail of every range,
`_continued`, which steps ints or Decimals alike: every index past the
head is the sum of the k values before it, plus the table's constant, 1
for S and 0 for f, which `_later` keeps running.  The stream is the
one place a range chooses between them: with text, it converts the
head's values by the one rule of `render` before the tail, and prints
what the tail yields; the int ranges and `compute_*` never convert to
Decimal.
Text is an argument, not a second generator, so a wrapper put around a
table entry sees every call, of either kind.

Each stream carries its cost model as stream.cost(k, n): the number of
big-integer operations one index n takes, which `bench` reports as
`ops`.  It is the count of additions for the window engines, the summand
count scaled for the closed forms, and for matrix the multiplications
that one index takes, `matrix_power.matrix_cost`, read off the one
schedule that the powering runs (`matrix_power._schedule`).  Every model
is arithmetic on (k, n) and runs nothing.

Every reader goes through this module: `eval`, `sum` and `bench` take
their engine names from the tables, `eval` and `sum` print what
`stream_values`/`stream_sums` yield with text=True, `bench` times the
first text of the same call, and the `engines` suite of `verify` checks
every registered engine, its ranges and its text.  `compute_value` and
`compute_sum` are the one entry for a single index, `stream_values` and
`stream_sums` for a range, with the stream's `text` flag.  One input
domain holds for every engine, and only this module holds it: every
value engine reads n < 0 as f(n) = 0, which this module yields itself,
while every sum engine rejects n < 0.  Every stream checks k, start and
stop by `sequence._count`, which rejects a negative start, so no engine
reads n < 0 as 0.  This module checks start and stop first, and k too
for a value engine, whose stream sees no negative start; it reports a
stop past sys.maxsize as the last index, stop - 1, that the caller asked
for, so the largest index is sys.maxsize - 1.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import accumulate, chain, islice, repeat

from .closed_form import _closed_head
from .matrix_power import _head, matrix_cost
from .render import _decimals, _texts
from .sequence import _check_index, _check_int, _check_k, _count, values


def _later(window: deque, constant: int) -> Iterator:
    """Yield the terms after window, which holds the last k = window.maxlen
    terms: first their sum plus constant, S(n) = S(n-1) + ... + S(n-k) + 1
    from n = k and f(n) = f(n-1) + ... + f(n-k) from n = 1, then that sum
    kept running, t(n+1) = t(n) + t(n) - t(n-k), as each term joins window
    and its oldest leaves.  The terms are ints or Decimals, as window's
    are."""
    term = sum(window, constant)
    while True:
        yield term
        oldest = window[0]
        window.append(term)
        term = term + term - oldest


def _continued(head: Iterator, k: int, count: int, constant: int) -> Iterator:
    """The count terms of S (constant=1), or of f (constant=0), from an
    index start >= 0: the first min(count, k) from the engine's own head,
    which is pulled no further, and every later one from the k before it
    by _later, in the type the head yields."""
    head = islice(head, min(count, k))
    window = deque(maxlen=k)
    for term in head:
        window.append(term)
        yield term
    del head  # the engine's own state is not held while the range steps
    if count > k:
        yield from islice(_later(window, constant), count - k)


def _engine(
    head: Callable[[int, int, int, bool], Iterator], cost: Callable[[int, int], int], constant: int
):
    """The range generator of an engine, with cost as its cost model: the
    first k indices of the range from head(k, start, count, text), the
    rest by `_continued` with constant, 1 for a sum engine and 0 for a
    value engine.  With text, the head's values become Decimals by
    `render._decimals`, each once, before the tail, and what it yields is
    printed by `render._texts`, under whose exact() context all of it
    runs.  A generator, so that it checks its input at the first next(),
    as the registry's readers expect."""

    def stream(k: int, start: int, stop: int, text: bool = False) -> Iterator:
        count = _count(k, start, stop)
        # the head is passed on, not named, so that `_continued` frees it
        if text:
            yield from _texts(_continued(_decimals(head(k, start, count, True)), k, count, constant))
        else:
            yield from _continued(head(k, start, count, False), k, count, constant)

    stream.cost = cost
    return stream


def _terms(k: int, n: int) -> int:
    """Summands of the alternating sum at n."""
    return n // (k + 1) + 1


_VALUE_DISPATCH = {
    "recurrence": _engine(
        lambda k, start, count, text: islice(values(k), start, None), lambda k, n: 2 * n, 0
    ),
    "dunkel-term": _engine(
        lambda k, start, count, text: _closed_head(k, start, count, True), lambda k, n: 4 * _terms(k, n), 0
    ),
    "matrix": _engine(partial(_head, sums=False), matrix_cost, 0),
}

_SUM_DISPATCH = {
    "direct": _engine(
        lambda k, start, count, text: islice(accumulate(values(k)), start, None), lambda k, n: 3 * n, 1
    ),
    "dunkel": _engine(
        lambda k, start, count, text: _closed_head(k, start, count, False), lambda k, n: 2 * _terms(k, n), 1
    ),
    "matrix": _engine(partial(_head, sums=True), matrix_cost, 1),
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
    """start and stop as the streams check them, except that a stop past
    sys.maxsize is reported as the last index, n = stop - 1, that the
    caller asked for."""
    _check_int("n", start)
    if type(stop) is int and stop > sys.maxsize:
        _check_index(stop - 1)
    _check_int("stop", stop)


def _range(table: dict, k: int, start: int, stop: int, engine: str, text: bool) -> Iterator:
    """The named engine's range start..stop-1 of table's quantity, as ints
    or as text; a value at n < 0 is f(n) = 0, which no stream yields."""
    stream = _lookup(table, engine)
    _check_k(k)
    _check_range(start, stop)
    if start < 0 and table is _VALUE_DISPATCH:
        return chain(repeat("0" if text else 0, min(stop, 0) - start), stream(k, 0, stop, text))
    return stream(k, start, stop, text)


def stream_values(
    k: int, start: int, stop: int, engine: str = "recurrence", text: bool = False
) -> Iterator:
    """f(n) for n = start..stop-1 through the named engine; f(n) = 0 for n < 0.
    Ints, or with text exact decimal strings."""
    return _range(_VALUE_DISPATCH, k, start, stop, engine, text)


def stream_sums(
    k: int, start: int, stop: int, engine: str = "direct", text: bool = False
) -> Iterator:
    """S(n) for n = start..stop-1 through the named engine, S(n) = f(0) + ... + f(n).
    Ints, or with text exact decimal strings."""
    return _range(_SUM_DISPATCH, k, start, stop, engine, text)


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
) -> tuple[Callable[..., Iterator], dict[str, Callable[[], int]]]:
    """The range generator of the names' quantity, `stream_values` or
    `stream_sums`, through which `eval` or `sum` print it with text=True,
    and for each engine name a call of its cost model at n (0 at a value
    index n < 0, which no engine computes).

    The names must all lie in one table: values when every name is a value
    engine (so matrix alone computes f(n)), else sums.
    """
    names = set(names)
    unknown = names - _VALUE_DISPATCH.keys() - _SUM_DISPATCH.keys()
    if unknown:
        raise ValueError(f"unknown engine(s) {sorted(unknown)}")
    if names <= _VALUE_DISPATCH.keys():
        table, stream = _VALUE_DISPATCH, stream_values
    elif names <= _SUM_DISPATCH.keys():
        table, stream = _SUM_DISPATCH, stream_sums
    else:
        raise ValueError("cannot mix value engines with partial-sum engines in one bench run")
    return stream, {engine: partial(_ops, table[engine].cost, k, n) for engine in names}
