"""Command-line front end: eval | sum | terms | tilings | verify | bench.

`eval`, `sum` and `bench` hold no engine of their own: their --engine
choices, defaults and bench's --engines come from the registry in
`engines`, which also applies the input domain.  `verify` only splits
its --suite lists: `verify.run_suites` checks all of its input, the suite
names too.

Values are always written as exact decimal strings, whatever their size,
by the one conversion rule of `render`.  `eval`, `sum` and `bench` ask
`engines.stream_values` or `stream_sums` for their values with
text=True; `terms` converts its magnitudes by `render._decimals` and
prints them by `render._texts`.  `eval` and `sum` check their whole --n
range before writing anything, then write each record as soon as it is
rendered, so a range holds one record at a time.
`bench` times the first record of that same text range, started at n, so
its elapsed_ns is the compute and render that `eval` or `sum` print.

Every subcommand builds records, dicts of its fields, and hands them to one
writer, `_emit`, which owns the three formats (plain, json, csv).  It joins
each json and csv line by hand, byte for byte what the json and csv modules
would write: every field is an int, a bool, verify's list of failures
(its only text that may need escaping, which json.dumps writes) or a str
that needs no escaping or quoting, a value's decimal digits or a name from
an engine, suite or status table.  The modules scanned each character of
a value: a json record of 2,000 digits took 15.7 us through json.dumps
and a csv row 53 us through csv.writer, against about 2 us joined
(CPython 3.11.7).  The one exception is the `tilings` listing: text is
most of a listing command's time, so it joins its rows itself, and writes
them 1024 to a call.  It reads the enumeration as `tilings.subtrees` gives
it, a walk over prefixes and one suffix table per room left: each table is
rendered once into the format's suffix texts, so a row is one
concatenation of its prefix's text with a suffix text, and `--count` adds
up the sizes of the walked tables without building a tiling.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or parameter error, or an input too large
for memory (the error line names the function that ran out, and records
already written stay written), 141 (128 + SIGPIPE) when the reader closes
stdout early, as `| head` does, with nothing on stderr.

A command imports only what it runs, as start-up is most of a small
command's time.  This module imports `argparse` and the engine modules,
`engines` (which imports `closed_form`, `matrix_power`, `render` and
`sequence`), which is all that `eval`, `sum`, `terms` and `bench` run.
`tilings` imports `kbonacci.tilings`, and `verify` imports
`kbonacci.verify` (and through it `tilings`), inside their commands.  The
csv module is never imported, and json only to write a json `verify`
record's failures.
The help texts read `DEFAULT_CAP` from `sequence` and the suite names
from `engines`, so `--help` imports neither laboratory module, and the
out-of-memory handler reads the frame that ran out from the traceback
object, importing nothing.

`main` builds its parser once per process, at its first call, and parses
every later command with it: the seven parsers and their arguments took
0.77 ms to build, where a whole in-process `eval --k 2 --n 10` now takes
0.06 ms (CPython 3.11.7, 2-vCPU VM).  The parser holds none of the
engines' functions: `cmd_values` looks its range generator up at each
call, so a wrapper put in its place later is the one called.
`build_parser()`, the one description of the command line, still returns
a fresh, complete parser at every call.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache
from itertools import chain, islice, starmap
from operator import add, itemgetter

from .closed_form import SUM_FORMULA, TERM_FORMULA, term_breakdown
from .engines import SUITE_NAMES, SUM_NAMES, VALUE_NAMES, bench_plan, stream_sums, stream_values
from .render import _decimals, _texts
from .sequence import DEFAULT_CAP

FORMATS = ("plain", "json", "csv")
VALUE_FIELDS = ["k", "n", "engine", "value"]
BENCH_FIELDS = VALUE_FIELDS + ["elapsed_ns", "ops"]


def _is_int(text: str) -> bool:
    """An optional '-' then ASCII digits.  int() alone would also take
    spaces around the digits, '_' between them, a '+' and non-ASCII
    digits."""
    return text.isascii() and text.removeprefix("-").isdigit()


def parse_int(text: str) -> int:
    if not _is_int(text):
        # argparse's own wording for a value that int() rejects
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def parse_range(text: str) -> range:
    """'a..b' (inclusive both ends) or a single integer."""
    ends = text.split("..", 1)
    if not all(map(_is_int, ends)):
        raise argparse.ArgumentTypeError(f"invalid range value: {text!r} is not an integer or a range a..b")
    start, stop = int(ends[0]), int(ends[-1])
    if start > stop:
        raise argparse.ArgumentTypeError(f"invalid range value: {text!r} is empty")
    return range(start, stop + 1)


def _jdump(rec) -> str:
    """rec as one compact json object with sorted keys, joined by hand,
    byte for byte what json.dumps(rec, sort_keys=True, separators=(",", ":"))
    writes.  An int field is its digits, a bool true or false, and a list
    (verify's failures, the one field whose text may need escaping) goes
    through json.dumps.  Every other field is a str written verbatim: a
    value's decimal digits, or an engine, suite or status name from its
    table, none of which json escapes.  The type tests name int, bool and
    list only, since a tracer may put a wrapper in place of `str` here."""
    fields = []
    for key in sorted(rec):
        v = rec[key]
        t = type(v)
        if t is int:
            fields.append(f'"{key}":{v}')
        elif t is bool:
            fields.append(f'"{key}":{"true" if v else "false"}')
        elif t is list:
            import json

            fields.append(f'"{key}":{json.dumps(v, separators=(",", ":"))}')
        else:
            fields.append(f'"{key}":"{v}"')
    return f"{{{','.join(fields)}}}"


class _CsvWriter:
    """csv.writer(sys.stdout, lineterminator="\\n") for the CLI's rows: no
    field holds a comma, a quote or a line break (a list field is passed
    as its length), so each field is written as format() gives it, as the
    csv module would."""

    @staticmethod
    def writerow(row) -> None:
        print(",".join(map(format, row)))


def _csv_writer() -> _CsvWriter:
    return _CsvWriter()


def _emit(records, fmt: str, fields: list[str], plain) -> None:
    """Write each record as it arrives.  plain: the record's text, one
    line or more.  json: one compact object with sorted keys per line,
    from _jdump.  csv: a header row of fields, then the fields of each
    record in that order, a list field (verify's failures) as its length,
    from _csv_writer's rows.  Both are module names read at each call, so
    a wrapper put in their place is the one called."""
    if fmt == "plain":
        for rec in records:
            print(plain(rec))
    elif fmt == "json":
        for rec in records:
            print(_jdump(rec))
    else:
        writer = _csv_writer()
        writer.writerow(fields)
        for rec in records:
            writer.writerow([len(v) if type(v) is list else v for v in map(rec.__getitem__, fields)])


def cmd_values(args) -> int:
    """eval or sum: the records of the range args.n as text from the
    engines' range generator of its quantity, `stream_values` or
    `stream_sums`, looked up at each call.

    The first value is computed before anything is written, so a parameter
    the engine rejects raises first; each later value is computed and
    rendered only when its record is asked for.
    """
    stream = stream_values if args.command == "eval" else stream_sums
    texts = stream(args.k, args.n[0], args.n.stop, args.engine, text=True)
    texts = chain([next(texts)], texts)
    records = (
        {"k": args.k, "n": n, "engine": args.engine, "value": text}
        for n, text in zip(args.n, texts)
    )
    _emit(records, args.format, VALUE_FIELDS, itemgetter("value"))
    return 0


def _term_line(rec) -> str:
    return f"{rec['j']} {'+' if rec['sign'] > 0 else '-'} {rec['magnitude']}"


def cmd_terms(args) -> int:
    terms = term_breakdown(args.k, args.n, args.which)
    magnitudes = _texts(_decimals(t.magnitude for t in terms))
    records = ({"j": t.j, "sign": t.sign, "magnitude": m} for t, m in zip(terms, magnitudes))
    _emit(records, args.format, ["j", "sign", "magnitude"], _term_line)
    return 0


# Listing rows are written in blocks of this many lines, one write each.
_ROWS_PER_WRITE = 1024


def cmd_tilings(args) -> int:
    from .tilings import subtrees

    n = args.n
    tables, walk = subtrees(args.k, n, args.bounded, args.cap)
    if args.count:
        count = sum(len(tables[room]) for _, room in walk)
        record = {"k": args.k, "n": n, "bounded": args.bounded, "count": count}
        _emit([record], args.format, ["k", "n", "bounded", "count"], itemgetter("count"))
        return 0
    # Rows are joined by hand: they match the json/csv modules' output byte
    # for byte, as no field needs escaping or quoting.  No tile or total
    # exceeds n, so each number is one lookup.  Each table is rendered once
    # into suffix texts, and a row is its prefix's text + a suffix text; a
    # suffix text opens with the separator unless the suffix is empty.
    digits = [str(t) for t in range(n + 1)]
    fmt = args.format
    sep = " " if fmt == "csv" else ","

    def joined(tiles):
        return sep.join([digits[t] for t in tiles])

    def total(room, tiles):
        return digits[n - room + sum(tiles)]

    def suffix_text(room, tiles):
        text = sep + joined(tiles) if tiles else ""
        if fmt == "json":
            return text + '],"total":' + total(room, tiles) + "}"
        return text + "]" if fmt == "plain" else text

    texts = [[suffix_text(room, tiles) for tiles in table] for room, table in enumerate(tables)]
    totals = None
    if fmt == "plain":
        opening = "["
    elif fmt == "json":
        opening = '{"tiles":['
    else:  # every csv row starts with its own total
        print("total,tiles")
        opening = ","
        totals = [[total(room, tiles) for tiles in table] for room, table in enumerate(tables)]

    def subtree_rows(prefix, room):
        suffixes = texts[room] if prefix else [text.removeprefix(sep) for text in texts[room]]
        rows = map((opening + joined(prefix)).__add__, suffixes)
        return rows if totals is None else map(add, totals[room], rows)

    rows = chain.from_iterable(starmap(subtree_rows, walk))
    while block := list(islice(rows, _ROWS_PER_WRITE)):
        print("\n".join(block))
    return 0


def _suite_lines(rec) -> str:
    """The suite's status line, then its first 20 failures."""
    failures = rec["failures"]
    lines = [f"{rec['status'].upper()} {rec['suite']} checks={rec['checks']}"]
    lines += [f"  - {line}" for line in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  - ... and {len(failures) - 20} more")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    from .verify import run_suites

    names = [s for chunk in args.suite or SUITE_NAMES for s in chunk.split(",") if s]

    records = [
        {
            "suite": res.name,
            "checks": res.checks,
            "failures": res.failures,
            "status": "pass" if res.passed else "fail",
        }
        for res in run_suites(names, args.k, args.n, args.cap)
    ]
    _emit(records, args.format, ["suite", "checks", "failures", "status"], _suite_lines)
    return 0 if all(rec["status"] == "pass" for rec in records) else 1


def _bench_line(rec) -> str:
    return " ".join(f"{f}={rec[f]}" for f in ("engine", "k", "n", "elapsed_ns", "ops", "value"))


def cmd_bench(args) -> int:
    tokens = [t for t in args.engines.split(",") if t]
    if not tokens:
        raise ValueError("--engines must name at least one engine")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    stream, ops = bench_plan(tokens, args.k, args.n)
    records = []
    for token in sorted(ops):
        best = None
        for _ in range(args.reps):
            start = time.perf_counter_ns()
            text = next(stream(args.k, args.n, args.n + 1, token, text=True))
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        records.append(dict(zip(BENCH_FIELDS, (args.k, args.n, token, text, best, ops[token]()))))
    _emit(records, args.format, BENCH_FIELDS, _bench_line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbonacci",
        description="Exact k-bonacci values, partial sums, tilings and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    for name, names, quantity in (("eval", VALUE_NAMES, "f(n)"), ("sum", SUM_NAMES, "f(0)+...+f(n)")):
        p = sub.add_parser(name, help=f"compute {quantity} for one engine")
        p.add_argument("--k", type=parse_int, required=True)
        p.add_argument("--n", type=parse_range, required=True, help="index or inclusive range a..b")
        p.add_argument("--engine", choices=sorted(names), default=names[0])
        add_format(p)
        p.set_defaults(func=cmd_values)

    p = sub.add_parser("terms", help="list the summands of a closed form")
    p.add_argument("--k", type=parse_int, required=True)
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--which", choices=(SUM_FORMULA, TERM_FORMULA), default=SUM_FORMULA)
    add_format(p)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("tilings", help="enumerate ruler tilings with tiles 1..k")
    p.add_argument("--k", type=parse_int, required=True)
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--bounded", action="store_true", help="total <= n instead of == n")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--cap", type=parse_int, default=None, help=f"enumeration cap (default {DEFAULT_CAP})")
    add_format(p)
    p.set_defaults(func=cmd_tilings)

    p = sub.add_parser("verify", help="run identity and bijection suites")
    p.add_argument(
        "--suite",
        action="append",
        metavar="NAME[,NAME...]",
        help=f"suites to run (default all): {', '.join(SUITE_NAMES)}",
    )
    p.add_argument("--k", type=parse_range, default=range(1, 5), help="k range (default 1..4)")
    p.add_argument("--n", type=parse_range, default=range(0, 13), help="n range (default 0..12)")
    p.add_argument("--cap", type=parse_int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time engines against each other")
    p.add_argument("--k", type=parse_int, required=True)
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--engines", default=",".join(VALUE_NAMES))
    p.add_argument("--reps", type=parse_int, default=3)
    add_format(p)
    p.set_defaults(func=cmd_bench)

    return parser


# main's parser: built by its first call, then reused for the process
_parser = cache(build_parser)


def _attach_range_values(argv: list[str]) -> list[str]:
    """Rewrite '--n A..B' as '--n=A..B', and --k alike.  argparse takes a
    token such as '-1..3' for an option, since it starts with '-' and is
    not a plain number, and would leave --n without its value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--k", "--n") and token.startswith("-") and ".." in token:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(
            _attach_range_values(sys.argv[1:] if argv is None else argv)
        )
        code = args.func(args)
        sys.stdout.flush()  # a reader gone before the last write is seen here
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # name where it ran out, so that one from a bug (libmpdec raises it
        # for a Decimal quotient that does not terminate) is not lost: the
        # last frame of the traceback, read without importing anything
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        origin = f"{code.co_name} ({os.path.basename(code.co_filename)}:{tb.tb_lineno})"
        print(f"error: the input is too large: out of memory in {origin}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
