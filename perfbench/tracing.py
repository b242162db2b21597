"""Spans around the calls into each kbonacci module, from outside the program.

`installed(tracer)` swaps wrappers into the places where callers look the
names up: the functions `cli` and `verify` imported, the suite table
`verify.SUITES`, and the dispatch tables in `engines`.  A wrapper records a
span (name, start, end, parent, command) in memory; a layer's self time is
its busy time minus the busy time of the spans nested in it.  Leaving the
`with` block puts the original objects back.

A call that returns an iterator (`iter_tilings` and friends) keeps one span
whose busy time grows by each `next()`, so lazily produced tilings are
charged to the tilings layer, not to the loop that consumes them.
"""

from __future__ import annotations

import builtins
import types
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from kbonacci import cli, engines, verify
from kbonacci.matrix_power import OpCount

LAYERS = {
    "kbonacci.engines": "engines",
    "kbonacci.sequence": "sequence",
    "kbonacci.closed_form": "closed_form",
    "kbonacci.matrix_power": "matrix_power",
    "kbonacci.tilings": "tilings",
}
CMD, NAME, START, END, PARENT, BUSY, CHILD = range(7)


class Tracer:
    """Spans and counters of one round of commands."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [cmd, name, start, end, parent, busy, child]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells: set[tuple] = set()  # (cmd, k, n, i) identity cells checked
        self.ops = OpCount()
        self.cmd = 0

    def open(self, name: str) -> int:
        self.spans.append([self.cmd, name, perf_counter(), None, self.stack[-1] if self.stack else None, 0.0, 0.0])
        return len(self.spans) - 1

    def run(self, sid: int, fn, *args, **kwargs):
        """Call fn inside span sid, adding the call's time to its busy time
        and to the child time of whichever span is open around it."""
        stack = self.stack
        outer = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            span = self.spans[sid]
            span[END] = end
            span[BUSY] += end - start
            if outer is not None:
                self.spans[outer][CHILD] += end - start

    def iterate(self, sid: int, it, counter: str):
        step = it.__next__
        while True:
            try:
                item = self.run(sid, step)
            except StopIteration:
                return
            self.counts[counter] += 1
            yield item

    def self_times(self) -> Counter:
        times: Counter = Counter()
        for span in self.spans:
            times[span[NAME]] += span[BUSY] - span[CHILD]
        return times

    def root_busy(self) -> float:
        return sum(span[BUSY] for span in self.spans if span[PARENT] is None)


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        sid = tracer.open(name)
        result = tracer.run(sid, fn, *args, **kwargs)
        if isinstance(result, types.GeneratorType):
            return tracer.iterate(sid, result, name + ".yielded")
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _with_ops(tracer: Tracer, fn):
    """Pass the tracer's OpCount to a matrix engine when the caller passes none."""

    @wraps(fn)
    def call(k, n, ops=None):
        return fn(k, n, tracer.ops if ops is None else ops)

    return call


def _layer_wrapper(tracer: Tracer, fn):
    layer = LAYERS[fn.__module__]
    if layer == "matrix_power":
        fn = _with_ops(tracer, fn)
    on_result = None
    if fn.__name__ == "verify_intersection_identity":

        def on_result(args, report):
            tracer.cells.add((tracer.cmd, *args[:3]))
            tracer.counts["tilings.identity_configs"] += report.configurations

    name = "tilings.identity" if on_result else layer
    return _wrap(tracer, name, fn, on_result)


class _TimedWriter:
    """A csv writer whose rows are charged to the format span."""

    def __init__(self, tracer: Tracer, writer) -> None:
        self.writerow = _wrap(tracer, "cli.format", writer.writerow)


@contextmanager
def installed(tracer: Tracer):
    saved: list[tuple[dict, str, object]] = []
    missing = object()

    def put(table: dict, key: str, value) -> None:
        saved.append((table, key, table.get(key, missing)))
        table[key] = value

    for module in (cli, verify):
        table = vars(module)
        for key, obj in list(table.items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ in LAYERS:
                put(table, key, _layer_wrapper(tracer, obj))
    for dispatch in (engines._VALUE_DISPATCH, engines._SUM_DISPATCH):
        for key, fn in list(dispatch.items()):
            put(dispatch, key, _layer_wrapper(tracer, fn))

    def count_checks(args, result):
        tracer.counts["verify.checks"] += result.checks

    for suite, fn in list(verify.SUITES.items()):
        put(verify.SUITES, suite, _wrap(tracer, f"verify.{suite}", fn, count_checks))

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.run(tracer.open("cli.parse"), build_parser)
        parser.parse_args = _wrap(tracer, "cli.parse", parser.parse_args)
        return parser

    table = vars(cli)
    put(table, "build_parser", traced_build_parser)
    put(table, "str", _wrap(tracer, "cli.render", builtins.str))
    put(table, "print", _wrap(tracer, "cli.write", builtins.print))
    put(table, "_jdump", _wrap(tracer, "cli.format", cli._jdump))
    csv_writer = cli._csv_writer
    put(table, "_csv_writer", lambda: _TimedWriter(tracer, csv_writer()))
    try:
        yield tracer
    finally:
        for table, key, old in reversed(saved):
            if old is missing:
                del table[key]
            else:
                table[key] = old


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    times = tracer.self_times()
    counts = tracer.counts
    identity_calls = counts["tilings.identity.calls"]
    metrics = {
        "cli.self_s": times["cli"],
        "cli.parse_s": times["cli.parse"],
        "cli.render_s": times["cli.render"],
        "cli.format_s": times["cli.format"],
        "cli.write_s": times["cli.write"],
        "engines.calls": counts["engines.calls"],
        "engines.self_s": times["engines"],
        "sequence.calls": counts["sequence.calls"],
        "sequence.s": times["sequence"],
        "closed_form.calls": counts["closed_form.calls"],
        "closed_form.s": times["closed_form"],
        "matrix_power.calls": counts["matrix_power.calls"],
        "matrix_power.s": times["matrix_power"],
        "matrix_power.scalar_mults": tracer.ops.scalar_mults,
        "matrix_power.matrix_products": tracer.ops.matrix_products,
        "tilings.s": times["tilings"] + times["tilings.identity"],
        "tilings.yielded": counts["tilings.yielded"],
        "tilings.identity_calls": identity_calls,
        "tilings.identity_configs": counts["tilings.identity_configs"],
        "tilings.identity_useful_ratio": len(tracer.cells) / identity_calls if identity_calls else 0.0,
        "verify.checks": counts["verify.checks"],
    }
    for suite in verify.SUITES:
        metrics[f"verify.{suite}.s"] = times[f"verify.{suite}"]
    return metrics


def dump_spans(tracer: Tracer, origin: float) -> dict:
    """The round's spans as rows; times in seconds from the round's start."""
    fields = ["cmd", "name", "start_s", "end_s", "parent", "busy_s", "self_s"]
    rows = [
        [s[CMD], s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[BUSY], s[BUSY] - s[CHILD]]
        for s in tracer.spans
    ]
    return {"fields": fields, "rows": rows}
