"""Command-line front end: eval | sum | terms | tilings | verify | bench.

Values are always rendered as exact decimal strings, whatever their size;
results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .closed_form import (
    SUM_FORMULA,
    TERM_FORMULA,
    kbonacci_closed,
    partial_sum_dunkel,
    partial_sum_dunkel_extended,
    term_breakdown,
)
from .engines import Engine, compute_sum, compute_value
from .matrix_power import OpCount, kbonacci_matrix, partial_sum_matrix
from .sequence import kbonacci_recurrence, partial_sum_direct
from .tilings import DEFAULT_CAP, iter_bounded_tilings, iter_tilings
from .verify import SUITES, run_suites

ENV_CAP = "KBONACCI_ENUM_CAP"

EVAL_ENGINES = {
    "recurrence": Engine.RECURRENCE,
    "dunkel-term": Engine.DUNKEL_TERM,
    "matrix": Engine.MATRIX,
}
SUM_ENGINES = {
    "direct": Engine.RECURRENCE,
    "dunkel": Engine.DUNKEL,
    "dunkel-extended": Engine.DUNKEL,
    "matrix": Engine.MATRIX,
}
FORMATS = ("plain", "json", "csv")


def parse_range(text: str) -> range:
    """'a..b' (inclusive both ends) or a single integer."""
    if ".." in text:
        a, b = text.split("..", 1)
        start, stop = int(a), int(b)
    else:
        start = stop = int(text)
    if start > stop:
        raise ValueError(f"range {text!r} is empty")
    return range(start, stop + 1)


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _resolve_cap(args) -> int | None:
    """Flag wins over the environment variable; neither means the default."""
    cap = getattr(args, "cap", None)
    if cap is not None:
        return cap
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {raw!r}") from None


def _emit_value_records(records, fmt: str) -> None:
    """records: iterable of dicts with keys k, n, engine, value (+ extras)."""
    if fmt == "plain":
        for rec in records:
            print(rec["value"])
    elif fmt == "json":
        for rec in records:
            print(_jdump(rec))
    else:
        writer = _csv_writer()
        records = list(records)
        fields = ["k", "n", "engine", "value"]
        extras = [f for f in ("elapsed_ns", "ops") if records and f in records[0]]
        writer.writerow(fields + extras)
        for rec in records:
            writer.writerow([rec[f] for f in fields + extras])


def cmd_eval(args) -> int:
    engine = EVAL_ENGINES[args.engine]
    records = [
        {"k": args.k, "n": n, "engine": args.engine, "value": str(compute_value(args.k, n, engine))}
        for n in args.n
    ]
    _emit_value_records(records, args.format)
    return 0


def cmd_sum(args) -> int:
    records = []
    for n in args.n:
        if args.engine == "dunkel-extended":
            m = args.m if args.m is not None else n // args.k
            value = partial_sum_dunkel_extended(args.k, n, m)
        else:
            if args.m is not None:
                raise ValueError("--m is only meaningful with --engine dunkel-extended")
            value = compute_sum(args.k, n, SUM_ENGINES[args.engine])
        records.append({"k": args.k, "n": n, "engine": args.engine, "value": str(value)})
    _emit_value_records(records, args.format)
    return 0


def cmd_terms(args) -> int:
    terms = term_breakdown(args.k, args.n, args.which)
    if args.format == "plain":
        for t in terms:
            print(f"{t.j} {'+' if t.sign > 0 else '-'} {t.magnitude}")
    elif args.format == "json":
        for t in terms:
            print(_jdump({"j": t.j, "sign": t.sign, "magnitude": str(t.magnitude)}))
    else:
        writer = _csv_writer()
        writer.writerow(["j", "sign", "magnitude"])
        for t in terms:
            writer.writerow([t.j, t.sign, t.magnitude])
    return 0


def cmd_tilings(args) -> int:
    cap = _resolve_cap(args)
    producer = iter_bounded_tilings if args.bounded else iter_tilings
    tilings = producer(args.k, args.n, cap)
    if args.count:
        count = sum(1 for _ in tilings)
        if args.format == "plain":
            print(count)
        elif args.format == "json":
            print(_jdump({"k": args.k, "n": args.n, "bounded": args.bounded, "count": count}))
        else:
            writer = _csv_writer()
            writer.writerow(["k", "n", "bounded", "count"])
            writer.writerow([args.k, args.n, args.bounded, count])
        return 0
    if args.format == "plain":
        for t in tilings:
            print(_jdump(list(t.tiles)))
    elif args.format == "json":
        for t in tilings:
            print(_jdump({"tiles": list(t.tiles), "total": t.total}))
    else:
        writer = _csv_writer()
        writer.writerow(["total", "tiles"])
        for t in tilings:
            writer.writerow([t.total, " ".join(map(str, t.tiles))])
    return 0


def cmd_verify(args) -> int:
    cap = _resolve_cap(args)
    names = []
    for chunk in args.suite or [",".join(SUITES)]:
        names.extend(s for s in chunk.split(",") if s)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {sorted(SUITES)}")
    results = run_suites(names, args.k, args.n, cap)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed = failed or not res.passed
        if args.format == "json":
            print(
                _jdump(
                    {
                        "suite": res.name,
                        "checks": res.checks,
                        "failures": res.failures,
                        "status": status.lower(),
                    }
                )
            )
        elif args.format == "csv":
            pass  # rows written after the loop so the header comes first
        else:
            print(f"{status} {res.name} checks={res.checks}")
            for line in res.failures[:20]:
                print(f"  - {line}")
            if len(res.failures) > 20:
                print(f"  - ... and {len(res.failures) - 20} more")
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["suite", "checks", "failures", "status"])
        for res in results:
            writer.writerow(
                [res.name, res.checks, len(res.failures), "pass" if res.passed else "fail"]
            )
    return 1 if failed else 0


_BENCH_VALUE_ONLY = {"recurrence", "dunkel-term"}
_BENCH_SUM_ONLY = {"direct", "dunkel", "dunkel-extended"}


def _bench_plan(tokens: list[str], k: int, n: int, m: int | None):
    """Map engine tokens to zero-argument callables plus an ops estimate.

    All callables must compute the same quantity; sum-only and value-only
    tokens cannot be mixed.  Linear and closed-form engines report a
    structural operation count, the matrix engine an instrumented one.
    """
    unknown = set(tokens) - _BENCH_VALUE_ONLY - _BENCH_SUM_ONLY - {"matrix"}
    if unknown:
        raise ValueError(f"unknown engine(s) {sorted(unknown)}")
    wants_sum = bool(set(tokens) & _BENCH_SUM_ONLY)
    if wants_sum and set(tokens) & _BENCH_VALUE_ONLY:
        raise ValueError("cannot mix value engines with partial-sum engines in one bench run")
    sum_terms = n // (k + 1) + 1
    plan = {}
    for token in tokens:
        if token == "recurrence":
            plan[token] = (lambda: kbonacci_recurrence(k, n)), 2 * max(n, 0)
        elif token == "dunkel-term":
            plan[token] = (lambda: kbonacci_closed(k, n)), 4 * sum_terms
        elif token == "direct":
            plan[token] = (lambda: partial_sum_direct(k, n)), 3 * max(n, 0)
        elif token == "dunkel":
            plan[token] = (lambda: partial_sum_dunkel(k, n)), 2 * sum_terms
        elif token == "dunkel-extended":
            limit = m if m is not None else n // k
            plan[token] = (lambda lim=limit: partial_sum_dunkel_extended(k, n, lim)), 2 * (limit + 1)
        elif token == "matrix":
            ops = OpCount()
            fn = partial_sum_matrix if wants_sum else kbonacci_matrix
            plan[token] = (lambda f=fn, o=ops: f(k, n, o)), ops
    return plan


def cmd_bench(args) -> int:
    tokens = [t for t in args.engines.split(",") if t]
    if not tokens:
        raise ValueError("--engines must name at least one engine")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    plan = _bench_plan(tokens, args.k, args.n, args.m)
    records = []
    for token in sorted(plan):
        fn, ops = plan[token]
        best = None
        value = None
        for _ in range(args.reps):
            if isinstance(ops, OpCount):
                ops.matrix_products = ops.scalar_mults = 0
            start = time.perf_counter_ns()
            value = fn()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        records.append(
            {
                "k": args.k,
                "n": args.n,
                "engine": token,
                "value": str(value),
                "elapsed_ns": best,
                "ops": ops.scalar_mults if isinstance(ops, OpCount) else ops,
            }
        )
    if args.format == "plain":
        for rec in records:
            print(
                f"engine={rec['engine']} k={rec['k']} n={rec['n']} "
                f"elapsed_ns={rec['elapsed_ns']} ops={rec['ops']} value={rec['value']}"
            )
    else:
        _emit_value_records(records, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="Exact k-bonacci values, partial sums, tilings and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("eval", help="compute f(n) for one engine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=parse_range, required=True, help="index or inclusive range a..b")
    p.add_argument("--engine", choices=sorted(EVAL_ENGINES), default="recurrence")
    add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sum", help="compute f(0)+...+f(n) for one engine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=parse_range, required=True, help="index or inclusive range a..b")
    p.add_argument("--engine", choices=sorted(SUM_ENGINES), default="direct")
    p.add_argument("--m", type=int, default=None, help="upper limit for dunkel-extended")
    add_format(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("terms", help="list the summands of a closed form")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=(SUM_FORMULA, TERM_FORMULA), default=SUM_FORMULA)
    add_format(p)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("tilings", help="enumerate ruler tilings with tiles 1..k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bounded", action="store_true", help="total <= n instead of == n")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--cap", type=int, default=None, help=f"enumeration cap (default {DEFAULT_CAP})")
    add_format(p)
    p.set_defaults(func=cmd_tilings)

    p = sub.add_parser("verify", help="run identity and bijection suites")
    p.add_argument(
        "--suite",
        action="append",
        metavar="NAME[,NAME...]",
        help=f"suites to run (default all): {', '.join(SUITES)}",
    )
    p.add_argument("--k", type=parse_range, default=range(1, 5), help="k range (default 1..4)")
    p.add_argument("--n", type=parse_range, default=range(0, 13), help="n range (default 0..12)")
    p.add_argument("--cap", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time engines against each other")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engines", default="recurrence,dunkel-term,matrix")
    p.add_argument("--m", type=int, default=None, help="limit for dunkel-extended")
    p.add_argument("--reps", type=int, default=3)
    add_format(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact decimal output for indices like 10^5 needs the str() digit
    # limit lifted (values run to tens of thousands of digits).  It is
    # interpreter-wide, so put it back for in-process callers.  0 means no
    # limit, as on interpreters that predate it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
