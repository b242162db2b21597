import argparse
import csv
import inspect
import io
import json
import operator
import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial, wraps
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbonacci import (
    CapExceededError,
    compute_sum,
    compute_value,
    kbonacci_prefix,
    term_breakdown,
)
from kbonacci import cli, engines, matrix_power, tilings, verify
from kbonacci.cli import FORMATS, build_parser, main, parse_range
from kbonacci.render import _LEAF_BITS, _decimals, _texts, exact

from cells import CELLS, disagreements
from oracles import subset_tilings

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def digit_limit(limit):
    """Set the interpreter's int/str digit limit (0: none) for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _edge_values():
    """0, then 2^w - 1, 2^w, 2^w + 1, 10^d - 1 and 10^d around one leaf
    and two leaves."""
    values = [0]
    for w in (_LEAF_BITS, 2 * _LEAF_BITS):
        d = len(str(1 << w)) - 1  # 10^d <= 2^w < 10^(d+1)
        values += [(1 << w) - 1, 1 << w, (1 << w) + 1]
        values += [10**e + delta for e in (d, d + 1) for delta in (-1, 0)]
    return values


# n below 2^200000: a random width filled with random bits, or a few
# scattered set bits, whose long runs of zeros leave some halves 0.
_wide_ints = st.one_of(
    st.builds(
        lambda width, seed: random.Random(seed).getrandbits(width),
        st.integers(0, 200_000),
        st.integers(0, 2**64 - 1),
    ),
    st.sets(st.integers(0, 199_999), max_size=8).map(lambda bits: sum(1 << b for b in bits)),
)


def _with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


@needs_digit_limit
@settings(max_examples=60, deadline=None)
@_with_examples(_edge_values())
@given(_wide_ints)
def test_decimals_print_as_int_str(n):
    with digit_limit(0):
        assert list(_texts(_decimals([n]))) == [str(n)]


def _switch_edge_values():
    """2^w - 1, 2^w and 2^w + 1 for the residue engine's switch width w."""
    w = matrix_power._DECIMAL_BITS
    return [(1 << w) - 1, 1 << w, (1 << w) + 1]


@needs_digit_limit
@settings(max_examples=60, deadline=None)
@_with_examples([-v for v in _edge_values() + _switch_edge_values() if v])
@given(_wide_ints.map(operator.neg))
def test_decimals_convert_negative_ints_exactly(n):
    with digit_limit(0):
        assert list(_texts(_decimals([n]))) == [str(n)]


@needs_digit_limit
@settings(max_examples=30, deadline=None)
@example([sign * v for v in _switch_edge_values() for sign in (1, -1)])
@given(st.lists(st.tuples(_wide_ints, st.booleans()).map(lambda p: -p[0] if p[1] else p[0]), min_size=1, max_size=6))
def test_residue_conversion_is_exact(ints):
    # residue coefficients are signed and share one cache of powers of two
    with exact():
        decimals = list(_decimals(ints))
    with digit_limit(0):
        assert [str(d) for d in decimals] == [str(n) for n in ints]


class TestParseRange:
    def test_single_value(self):
        assert list(parse_range("4")) == [4]

    def test_inclusive_range(self):
        assert list(parse_range("0..3")) == [0, 1, 2, 3]

    def test_negative_start(self):
        assert list(parse_range("-2..1")) == [-2, -1, 0, 1]

    def test_empty_range_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("5..2")

    @pytest.mark.parametrize("text", [" 3", "3 ", "\u0663", "1_0", "+5", "1.. 3", "-1..+3", "", "-", "1..", "..3"])
    def test_only_ascii_digits_after_an_optional_minus(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(text)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["eval", "--k", "2", "--n", "5..3"], "argument --n: invalid range value: '5..3' is empty"),
            (["eval", "--k", "2", "--n", "3.."], "argument --n: invalid range value: '3..' is not an integer"),
            (["sum", "--k", "2", "--n", "1.5"], "argument --n: invalid range value: '1.5' is not an integer"),
            (["verify", "--k", "3..2"], "argument --k: invalid range value: '3..2' is empty"),
        ],
    )
    def test_the_reason_reaches_stderr(self, capsys, argv, reason):
        # argparse prints an ArgumentTypeError's own message, but replaces a
        # ValueError's with one that names the type function
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert reason in err and "parse_range" not in err


class TestEval:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "4")
        assert code == 0
        assert out == "5\n"

    def test_degenerate_family(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "1", "--n", "9")
        assert code == 0
        assert out == "1\n"

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "3", "--n", "0..3")
        assert code == 0
        assert out.split() == ["1", "1", "2", "4"]

    def test_engines_print_identical_bytes(self, capsys):
        outputs = set()
        for engine in ("recurrence", "dunkel-term", "matrix"):
            _, out, _ = run(capsys, "eval", "--k", "3", "--n", "0..25", "--engine", engine)
            outputs.add(out)
        assert len(outputs) == 1

    def test_parameter_error_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--k", "0", "--n", "4")
        assert code == 2
        assert out == ""
        assert "k must be" in err

    def test_negative_n_allowed_on_recurrence(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "3", "--n=-2")
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_engine_reads_negative_indices_as_zero(self, capsys, fmt):
        outputs = set()
        for engine in engines.VALUE_NAMES:
            code, out, _ = run(capsys, "eval", "--k", "3", "--n=-3..4", "--engine", engine, "--format", fmt)
            assert code == 0
            outputs.add(out.replace(engine, "ENGINE"))
        assert len(outputs) == 1
        if fmt == "plain":
            assert outputs == {"0\n0\n0\n1\n1\n2\n4\n7\n"}

    @pytest.mark.parametrize("engine", engines.VALUE_NAMES)
    def test_k_checked_before_negative_indices(self, capsys, engine):
        code, out, err = run(capsys, "eval", "--k", "0", "--n=-2..1", "--engine", engine)
        assert (code, out) == (2, "")
        assert "k must be" in err


class TestSum:
    def test_direct(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--n", "4")
        assert (code, out) == (0, "12\n")

    def test_base_case_value(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "9", "--n", "6")
        assert (code, out) == (0, "64\n")

    def test_sum_engines_print_identical_bytes(self, capsys):
        outputs = set()
        for engine in ("direct", "dunkel", "matrix"):
            _, out, _ = run(capsys, "sum", "--k", "2", "--n", "0..20", "--engine", engine)
            outputs.add(out)
        assert len(outputs) == 1

    def test_matrix_sums_at_k_1_count_the_indices(self, capsys):
        # x^n mod x - 1 is 1 for every n, so S(n) = n + 1 has its own line
        code, out, _ = run(capsys, "sum", "--k", "1", "--n", "0..40", "--engine", "matrix")
        assert (code, out) == (0, "".join(f"{n + 1}\n" for n in range(41)))
        assert run(capsys, "sum", "--k", "1", "--n", "0..40", "--engine", "direct")[1] == out

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_matrix_text_path_prints_the_window_engines_bytes(self, capsys, monkeypatch, fmt):
        # a lowered switch sends these indices through Decimal squarings
        monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
        for k in range(1, 9):
            for n in ("0", "1", str(k), "57", "200", "150..200"):
                for sub, reference in (("eval", "recurrence"), ("sum", "direct")):
                    argv = (sub, "--k", str(k), "--n", n, "--format", fmt, "--engine")
                    code, out, _ = run(capsys, *argv, "matrix")
                    assert (code, out.replace("matrix", reference)) == run(capsys, *argv, reference)[:2]


# (subcommand, engine) -> the registry's single-index call at that engine
_SINGLE_CALLS = {
    **{("eval", engine): partial(compute_value, engine=engine) for engine in engines.VALUE_NAMES},
    **{("sum", engine): partial(compute_sum, engine=engine) for engine in engines.SUM_NAMES},
}


def _stdout_of(*argv):
    with redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@example(k=1, start=0, length=40)
@example(k=12, start=0, length=40)
@given(k=st.integers(1, 12), start=st.integers(0, 200), length=st.integers(1, 40))
def test_range_matches_single_calls_and_recurrence(k, start, length):
    ns = range(start, start + length)
    prefix = kbonacci_prefix(k, ns[-1])
    expected = {"eval": prefix[start:], "sum": list(accumulate(prefix))[start:]}
    for (sub, engine), single in _SINGLE_CALLS.items():
        out = _stdout_of(sub, "--k", str(k), "--n", f"{ns[0]}..{ns[-1]}", "--engine", engine)
        printed = [int(line) for line in out.splitlines()]
        assert printed == [single(k, n) for n in ns] == expected[sub], (sub, engine)


def _code_and_stdout(*argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@example(k=0, start=-2, length=4)
@example(k=2, start=-3, length=8)
@given(k=st.integers(-1, 8), start=st.integers(-8, 60), length=st.integers(1, 12))
def test_every_registered_engine_prints_the_same_or_exits_2(k, start, length):
    argv = ("--k", str(k), f"--n={start}..{start + length - 1}")
    for sub, names in (("eval", engines.VALUE_NAMES), ("sum", engines.SUM_NAMES)):
        results = {_code_and_stdout(sub, *argv, "--engine", engine) for engine in names}
        assert len(results) == 1, (sub, results)
        [(code, out)] = results
        assert (code, out == "") in ((0, False), (2, True)), (sub, code)


def _subparsers(parser) -> dict:
    """The parser's subcommands: name -> its ArgumentParser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option(sub, dest):
    return next(a for a in _subparsers(build_parser())[sub]._actions if a.dest == dest)


def _engines_suite(ks, ns):
    """The engines suite called directly, past run_suites' checks."""
    return verify.suite_engines(verify.SuiteResult("engines"), ks, ns, None, {})


def test_every_reader_takes_its_engines_from_the_registry(capsys, monkeypatch):
    values, sums = list(engines._VALUE_DISPATCH), list(engines._SUM_DISPATCH)
    assert _option("eval", "engine").choices == sorted(values)
    assert _option("sum", "engine").choices == sorted(sums)
    defaults = (inspect.signature(f).parameters["engine"].default for f in (compute_value, compute_sum))
    assert (_option("eval", "engine").default, _option("sum", "engine").default) == tuple(defaults)
    assert _option("bench", "engines").default.split(",") == values
    for engine in {*values, *sums}:
        code, out, _ = run(capsys, "bench", "--k", "2", "--n", "5", "--engines", engine, "--reps", "1")
        assert (code, out.count("\n")) == (0, 1), engine
    assert run(capsys, "bench", "--k", "2", "--n", "5", "--engines", "warp")[0] == 2

    def wrong(k, start, stop, text=False):
        yield "-1" if text else -1

    for table in (engines._VALUE_DISPATCH, engines._SUM_DISPATCH):
        for engine in table:
            monkeypatch.setitem(table, engine, wrong)
    failures = _engines_suite(range(2, 3), range(5, 6)).failures
    assert failures == [
        *(f"value {e} mismatch at k=2 n=5" for e in values),
        *(f"sum {e} mismatch at k=2 n=5" for e in sums),
        *(f"value {e} {path} mismatch at k=2 n=5..5" for e in values for path in ("range", "text")),
        *(f"sum {e} {path} mismatch at k=2 n=5..5" for e in sums for path in ("range", "text")),
    ]


def test_the_engines_suite_takes_indices_n_at_least_0():
    # run_suites rejects n < 0 before any suite; called directly, the suite
    # rejects it as its baseline does
    assert _engines_suite(range(2, 3), range(0, 4)).failures == []
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        _engines_suite(range(2, 3), range(-1, 2))


def _engines_failures(capsys):
    """The failure lines of `verify --n 0..12`, which must fail in the
    engines suite alone."""
    code, out, _ = run(capsys, "verify", "--n", "0..12")
    lines = out.splitlines()
    assert (code, lines[0].split()[:2]) == (1, ["FAIL", "engines"])
    assert [line.split()[0] for line in lines if not line.startswith("  - ")] == ["FAIL"] + ["PASS"] * 5
    return lines[1:]


def test_the_engines_suite_checks_the_sum_step_of_every_range(monkeypatch):
    # index start+k of every engine's range is the sum of the k values
    # before it plus the table's constant, which no single index reaches;
    # one more makes it, and the steps from it, off by one
    real = engines._continued
    monkeypatch.setattr(
        engines, "_continued", lambda head, k, count, constant: real(head, k, count, constant + 1)
    )
    [result] = verify.run_suites(["engines"], range(1, 5), range(0, 13), None)
    assert not result.passed
    assert result.failures == [
        f"{quantity} {engine} {path} mismatch at k={k} n=0..12"
        for k in range(1, 5)
        for quantity, names in (("value", engines.VALUE_NAMES), ("sum", engines.SUM_NAMES))
        for engine in names
        for path in ("range", "text")
    ]


def test_the_engines_suite_checks_the_step_of_every_range(capsys, monkeypatch):
    # past its first k indices every engine's range steps by _later,
    # which no single index reaches
    real = engines._later

    def off_by_one(window, constant):
        for term in real(window, constant):
            yield term + 1

    monkeypatch.setattr(engines, "_later", off_by_one)
    failures = _engines_failures(capsys)
    assert "  - value recurrence range mismatch at k=1 n=0..12" in failures
    assert "  - sum matrix text mismatch at k=1 n=0..12" in failures


def test_the_engines_suite_checks_the_text_of_every_range(capsys, monkeypatch):
    # a text range converts its first k values to Decimal; a wrong
    # conversion shows in the text alone
    real = engines._decimals
    monkeypatch.setattr(engines, "_decimals", lambda ints: real(n + 1 for n in ints))
    failures = _engines_failures(capsys)
    assert "  - value dunkel-term text mismatch at k=1 n=0..12" in failures
    assert not [line for line in failures if "range mismatch" in line]


@pytest.mark.parametrize(
    "sub, table, engine",
    [
        *(("eval", engines._VALUE_DISPATCH, e) for e in engines.VALUE_NAMES),
        *(("sum", engines._SUM_DISPATCH, e) for e in engines.SUM_NAMES),
    ],
    ids=lambda v: v if type(v) is str else "",
)
def test_a_wrapped_table_entry_sees_every_command(capsys, monkeypatch, sub, table, engine):
    # a wrapper put around a table entry, as the benchmark's tracer puts
    # one, sees the text that eval, sum and bench print, not only ints
    real, calls = table[engine], []

    @wraps(real)
    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setitem(table, engine, counted)
    # bench runs the sum table once a name is a sum engine alone
    benched = engine if sub == "eval" else f"direct,{engine}"
    for argv in (
        (sub, "--k", "2", "--n", "5", "--engine", engine),
        (sub, "--k", "2", "--n", "5..12", "--engine", engine),
        ("bench", "--k", "2", "--n", "5", "--engines", benched, "--reps", "1"),
    ):
        before = len(calls)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == before + 1, argv


class TestRanges:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("sum", "--k", "2", "--n=-1..3", "--engine", "direct"),
            ("sum", "--k", "2", "--n=-1..3", "--engine", "matrix"),
            ("sum", "--k", "2", "--n=-1..3", "--engine", "dunkel"),
            ("sum", "--k", "0", "--n", "0..5"),
            ("eval", "--k", "0", "--n", "0..5"),
        ],
    )
    def test_range_invalid_anywhere_writes_nothing(self, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_negative_start_on_recurrence(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--n=-2..3")
        assert (code, out.split()) == (0, ["0", "0", "1", "1", "2", "3"])

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("eval", "--k", "2"), "--n", "-2..3"),
            (("sum", "--k", "2"), "--n", "-1..3"),
            (("verify", "--suite", "engines"), "--n", "-1..3"),
            (("verify", "--suite", "engines", "--n", "0..3"), "--k", "-1..2"),
        ],
    )
    def test_negative_range_start_after_a_space(self, capsys, argv, flag, value):
        joined = run(capsys, *argv, f"{flag}={value}")
        assert run(capsys, *argv, flag, value) == joined
        assert "expected one argument" not in joined[2]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("sub, table", [("eval", "_VALUE_DISPATCH"), ("sum", "_SUM_DISPATCH")])
    def test_each_record_written_before_the_next_is_computed(self, monkeypatch, sub, table, fmt):
        out = io.StringIO()
        lines_seen = []

        def watched(k, start, stop, text=False):
            for n in range(start, stop):
                lines_seen.append(out.getvalue().count("\n"))
                yield str(n) if text else n

        default = next(iter(getattr(engines, table)))  # recurrence for eval, direct for sum
        monkeypatch.setitem(getattr(engines, table), default, watched)
        monkeypatch.setattr(sys, "stdout", out)
        assert main([sub, "--k", "2", "--n", "10..14", "--format", fmt]) == 0
        header = fmt == "csv"
        # the first value is computed before anything is written, the header included
        assert lines_seen == [0] + [header + i for i in range(1, 5)]
        lines = out.getvalue().splitlines()
        assert len(lines) == header + 5
        if header:
            assert lines[0] == "k,n,engine,value"


_BIG = str(10**30)
# every k, index and range stop beyond sys.maxsize, on every engine that takes it
_OVERSIZED = (
    [
        argv + ("--engine", engine)
        for sub, names in (("eval", engines.VALUE_NAMES), ("sum", engines.SUM_NAMES))
        for engine in names
        for argv in (
            (sub, "--k", "2", "--n", f"0..{_BIG}"),
            (sub, "--k", "2", f"--n=-{_BIG}..3"),
            (sub, "--k", _BIG, "--n", "5"),
        )
    ]
    + [
        ("bench", "--k", *argv, "--reps", "1", "--engines", engine)
        for engine in engines.VALUE_NAMES + engines.SUM_NAMES
        for argv in ((_BIG, "--n", "5"), ("2", "--n", _BIG))
    ]
    + [
        ("terms", "--k", "2", "--n", str(10**29)),
        ("terms", "--k", "2", "--n", str(10**29), "--which", "term-formula"),
        ("terms", "--k", _BIG, "--n", "5"),
        ("tilings", "--k", _BIG, "--n", "5", "--count"),
        ("tilings", "--k", _BIG, "--n", "5", "--count", "--bounded"),
        ("tilings", "--k", _BIG, "--n", "5"),
        ("verify", "--k", _BIG),
    ]
)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", _OVERSIZED, ids=lambda argv: " ".join(argv).replace(_BIG, "1e30"))
def test_oversized_arguments_exit_2(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "sys.maxsize" in err


_MAX = str(sys.maxsize)


@pytest.mark.parametrize(
    "argv, out",
    [
        *[
            (("eval", "--k", _MAX, "--n", "-1..5", "--engine", engine), "0\n1\n1\n2\n4\n8\n16\n")
            for engine in engines.VALUE_NAMES
        ],
        *[
            (("sum", "--k", _MAX, "--n", "0..5", "--engine", engine), "1\n2\n4\n8\n16\n32\n")
            for engine in engines.SUM_NAMES
        ],
        (("eval", "--k", _MAX, "--n", "5", "--engine", "matrix"), "16\n"),
        (("sum", "--k", _MAX, "--n", "5", "--engine", "matrix"), "32\n"),
        (
            ("verify", "--k", _MAX),
            "PASS engines checks=90\nPASS closed-form checks=90\n"
            "PASS tilings checks=77\nPASS hash-marks checks=39\n"
            "PASS inclusion-exclusion checks=13\nPASS bijection checks=0\n",
        ),
        (
            ("verify", "--k", _MAX, "--suite", "inclusion-exclusion", "--n", "0..3"),
            "PASS inclusion-exclusion checks=4\n",
        ),
    ],
    ids=lambda v: " ".join(v).replace(_MAX, "maxsize") if type(v) is tuple else "",
)
def test_the_largest_k_is_in_the_domain(capsys, argv, out):
    # no k-long list: below k the residue is x^n, the tiles of a tiling of
    # n are at most n, and no mark shifts past the ruler's n + 1 bits
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--k", "2", "--n", _MAX),
        ("sum", "--k", "2", "--n", f"0..{_MAX}"),
        ("bench", "--k", "2", "--n", _MAX),
        ("verify", "--n", _MAX, "--suite", "engines"),
    ],
    ids=lambda argv: " ".join(argv).replace(_MAX, "maxsize"),
)
def test_an_index_error_names_the_index_given(capsys, argv):
    # n runs to sys.maxsize - 1: the stop n + 1 of its range is the largest
    err = f"error: n must be below sys.maxsize = {_MAX}, got {_MAX}\n"
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "sub, engine",
    [("eval", engine) for engine in engines.VALUE_NAMES] + [("sum", engine) for engine in engines.SUM_NAMES],
)
def test_k_is_checked_before_the_range(capsys, sub, engine):
    argv = (sub, "--k", "0", "--n", f"0..{_BIG}", "--engine", engine)
    assert run(capsys, *argv) == (2, "", "error: k must be a positive integer, got 0\n")


def _with_src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "kbonacci", "eval", "--k", "2", "--n", "4"],
        env=_with_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "5\n")


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("eval", "--k", "2", "--n", "0..20000"), 1),
        (("sum", "--k", "2", "--n", "0..20000", "--format", "csv"), 1),
        (("tilings", "--k", "2", "--n", "20"), 1),
        # all of it still buffered when the command returns
        (("eval", "--k", "2", "--n", "4"), 0),
    ],
    ids=lambda v: " ".join(v) if type(v) is tuple else f"read {v}",
)
def test_a_closed_stdout_exits_141_quietly(argv, lines):
    # a reader that stops early, as `| head -n 1` does: 128 + SIGPIPE, and
    # no traceback, where 1 would read as a failed verify suite.  stdout is
    # block-buffered, as it is into a pipe unless PYTHONUNBUFFERED is set
    env = _with_src_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kbonacci", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        assert (code, proc.stderr.read()) == (141, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# Modules that `eval` never runs, so a fresh process that runs it must not
# import them: each costs start-up time on every command.
_NOT_FOR_EVAL = (
    "contextlib",
    "dataclasses",
    "inspect",
    "typing",
    "json",
    "csv",
    "traceback",
    "kbonacci.tilings",
    "kbonacci.verify",
)


@pytest.mark.parametrize("fmt, loaded", [("plain", []), ("json", ["json"])])
def test_a_fresh_eval_imports_only_what_it_runs(fmt, loaded):
    # -S: without site, whose hooks may import any of these on their own
    code = (
        "import sys\n"
        "from kbonacci.cli import main\n"
        f"code = main(['eval', '--k', '2', '--n', '4', '--format', {fmt!r}])\n"
        f"print(code, [m for m in {_NOT_FOR_EVAL!r} if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=_with_src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.stderr == ""
    # the last line: the exit code, then the modules of the list that were imported
    assert result.stdout.splitlines()[-1] == f"0 {loaded}"


class TestTerms:
    def test_sum_formula_rows(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "3", "--n", "7")
        assert code == 0
        assert out.splitlines() == ["0 + 128", "1 - 32"]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "2", "--n", "0")
        assert (code, out) == (0, "0 + 1\n")

    def test_term_formula_rows(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "2", "--n", "4", "--which", "term-formula")
        assert code == 0
        assert out.splitlines() == ["0 + 8", "1 - 3"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "3", "--n", "7", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["j,sign,magnitude", "0,1,128", "1,-1,32"]

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # at n = sys.maxsize the first summand is a shift by about 2^63 bits
        def too_large(k, n, which):
            raise MemoryError

        monkeypatch.setattr(cli, "term_breakdown", too_large)
        code, out, err = run(capsys, "terms", "--k", "2", "--n", str(sys.maxsize))
        assert (code, out) == (2, "")
        # the line names where memory ran out: here, the stand-in above
        assert re.fullmatch(r"error: the input is too large: out of memory in too_large \(test_cli\.py:\d+\)\n", err)


class TestTilings:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "4", "--count")
        assert (code, out) == (0, "5\n")

    def test_count_window_four(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "4", "--n", "4", "--count")
        assert (code, out) == (0, "8\n")

    def test_bounded_count(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "4", "--bounded", "--count")
        assert (code, out) == (0, "12\n")

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["[1,1,1]", "[1,2]", "[2,1]"]

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "3", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"tiles": [1, 1, 1], "total": 3},
            {"tiles": [1, 2], "total": 3},
            {"tiles": [2, 1], "total": 3},
        ]

    # (k, n, bounded): the empty tiling alone, one short list, and listings
    # longer than one block of rows
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "k, n, bounded",
        [(2, 0, True), (3, 0, False), (2, 6, False), (4, 13, False), (2, 15, True)],
    )
    def test_listing_bytes_match_the_json_and_csv_modules(self, capsys, fmt, k, n, bounded):
        self._assert_listing_matches_the_modules(capsys, fmt, k, n, bounded)

    # cells whose root is a table (n = depth) and one room above it, for
    # the walk alone (0), tables of one and three rooms, and the default
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("k", [2, 3, sys.maxsize])
    @pytest.mark.parametrize("above", [0, 1])
    @pytest.mark.parametrize("depth", [0, 1, 3, tilings._TABLE_ROOM])
    def test_listing_bytes_across_the_table_boundary(self, capsys, monkeypatch, depth, above, k, bounded, fmt):
        monkeypatch.setattr(tilings, "_TABLE_ROOM", depth)
        self._assert_listing_matches_the_modules(capsys, fmt, k, depth + above, bounded)

    @staticmethod
    def _assert_listing_matches_the_modules(capsys, fmt, k, n, bounded):
        every = sorted(tiles for _, tiles in subset_tilings(n))
        listed = [t for t in every if max(t, default=1) <= k and (bounded or sum(t) == n)]
        expected = io.StringIO()
        if fmt == "csv":
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(["total", "tiles"])
            for t in listed:
                writer.writerow([sum(t), " ".join(map(str, t))])
        else:
            for t in listed:
                obj = list(t) if fmt == "plain" else {"tiles": list(t), "total": sum(t)}
                print(json.dumps(obj, sort_keys=True, separators=(",", ":")), file=expected)
        argv = ["tilings", "--k", str(k), "--n", str(n), "--format", fmt] + ["--bounded"] * bounded
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected.getvalue())

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("k", [*range(1, 6), sys.maxsize])
    def test_count_is_the_number_of_listed_rows(self, capsys, k, bounded):
        for n in range(0, 15):
            for fmt in FORMATS:
                argv = ["tilings", "--k", str(k), "--n", str(n), "--format", fmt] + ["--bounded"] * bounded
                code, out, _ = run(capsys, *argv)
                rows = out.splitlines()[fmt == "csv" :]  # past the csv header
                code_count, out_count, _ = run(capsys, *argv, "--count")
                if fmt == "plain":
                    count = int(out_count)
                elif fmt == "json":
                    count = json.loads(out_count)["count"]
                else:
                    count = int(next(csv.DictReader(io.StringIO(out_count)))["count"])
                assert (code, code_count, count) == (0, 0, len(rows)), (n, fmt)

    def test_cap_flag_allows_and_blocks(self, capsys):
        code, _, err = run(capsys, "tilings", "--k", "1", "--n", "30", "--count")
        assert code == 2
        assert "cap" in err
        code, out, _ = run(capsys, "tilings", "--k", "1", "--n", "30", "--count", "--cap", "30")
        assert (code, out) == (0, "1\n")


class TestJsonRoundTrip:
    def test_eval_records(self, capsys):
        _, out, _ = run(capsys, "eval", "--k", "2", "--n", "0..6", "--format", "json")
        for line in out.splitlines():
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line

    def test_bench_records(self, capsys):
        _, out, _ = run(
            capsys, "bench", "--k", "2", "--n", "100", "--reps", "1", "--format", "json"
        )
        for line in out.splitlines():
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line


def _failing_suite(result, ks, ns, cap, cells):
    for i in range(30):
        result.expect(i >= 25, f"forced mismatch {i}")
    return result


def _verify_plain(rec):
    failures = rec["failures"]
    lines = [f"{rec['status'].upper()} {rec['suite']} checks={rec['checks']}"]
    lines += [f"  - {line}" for line in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  - ... and {len(failures) - 20} more")
    return lines


def _terms_plain(rec):
    return [f"{rec['j']} {'+' if rec['sign'] > 0 else '-'} {rec['magnitude']}"]


_BENCH_TIMINGS = ("elapsed_ns",)

# name: (argv, csv header, plain lines of one json record, exit code)
_CROSS_FORMAT = {
    "eval": (
        ("eval", "--k", "3", "--n", "-2..9", "--engine", "matrix"),
        ["k", "n", "engine", "value"], lambda r: [r["value"]], 0,
    ),
    "sum": (
        ("sum", "--k", "2", "--n", "0..8", "--engine", "dunkel"),
        ["k", "n", "engine", "value"], lambda r: [r["value"]], 0,
    ),
    "terms-sum": (
        ("terms", "--k", "3", "--n", "11"),
        ["j", "sign", "magnitude"],
        _terms_plain, 0,
    ),
    "terms-term": (
        ("terms", "--k", "2", "--n", "9", "--which", "term-formula"),
        ["j", "sign", "magnitude"],
        _terms_plain, 0,
    ),
    "tilings-count": (
        ("tilings", "--k", "3", "--n", "9", "--count"),
        ["k", "n", "bounded", "count"], lambda r: [str(r["count"])], 0,
    ),
    "tilings-count-bounded": (
        ("tilings", "--k", "3", "--n", "9", "--count", "--bounded"),
        ["k", "n", "bounded", "count"], lambda r: [str(r["count"])], 0,
    ),
    "verify": (
        ("verify", "--k", "1..2", "--n", "0..6"),
        ["suite", "checks", "failures", "status"], _verify_plain, 0,
    ),
    "verify-failing": (
        ("verify", "--suite", "engines,closed-form", "--k", "1..2", "--n", "0..6"),
        ["suite", "checks", "failures", "status"], _verify_plain, 1,
    ),
    "bench": (
        ("bench", "--k", "2", "--n", "40", "--reps", "1", "--engines", "recurrence,matrix"),
        ["k", "n", "engine", "value", "elapsed_ns", "ops"],
        lambda r: [" ".join(f"{f}={r[f]}" for f in ("engine", "k", "n", "elapsed_ns", "ops", "value"))],
        0,
    ),
}


def _masked(name, rec, zero):
    """rec with bench's timings set to zero: they differ from run to run."""
    return {**rec, **dict.fromkeys(_BENCH_TIMINGS, zero)} if name == "bench" else rec


def _csv_cell(value):
    return str(len(value) if type(value) is list else value)


@pytest.mark.parametrize("name", sorted(_CROSS_FORMAT))
def test_every_format_writes_the_same_records(capsys, monkeypatch, name):
    """Json objects, csv rows and plain lines describe the same records:
    one compact sorted object per line; a header, then each record's fields
    in its order, a list field as its length; each record's plain lines."""
    argv, header, plain, code = _CROSS_FORMAT[name]
    if name == "verify-failing":
        monkeypatch.setitem(verify.SUITES, "engines", _failing_suite)
    outs = {}
    for fmt in FORMATS:
        got_code, out, err = run(capsys, *argv, "--format", fmt)
        assert (got_code, err) == (code, ""), fmt
        outs[fmt] = out
    lines = outs["json"].splitlines()
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    records = [_masked(name, json.loads(line), 0) for line in lines]
    assert records and all(sorted(rec) == sorted(header) for rec in records)
    rows = list(csv.reader(io.StringIO(outs["csv"])))
    assert rows[0] == header
    assert [_masked(name, dict(zip(header, row)), "0") for row in rows[1:]] == [
        {f: _csv_cell(rec[f]) for f in header} for rec in records
    ]
    plain_lines = outs["plain"].splitlines()
    if name == "bench":
        plain_lines = [re.sub(r"\belapsed_ns=\d+", "elapsed_ns=0", line) for line in plain_lines]
    assert plain_lines == [line for rec in records for line in plain(rec)]
    if name == "verify-failing":
        assert [len(rec["failures"]) for rec in records] == [25, 0]
        assert [row[2] for row in rows[1:]] == ["25", "0"]
        assert plain_lines[:22] == (
            ["FAIL engines checks=30"]
            + [f"  - forced mismatch {i}" for i in range(20)]
            + ["  - ... and 5 more"]
        )


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "1..3", "--n", "0..8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_selected_suites(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "engines,inclusion-exclusion", "--k", "1..3", "--n", "0..8"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("PASS engines")
        assert out.splitlines()[1].startswith("PASS inclusion-exclusion")

    @pytest.mark.parametrize(
        "suites",
        [
            ["--suite", "engines,closed-form,engines"],
            ["--suite", "engines", "--suite", "closed-form,engines"],
            ["--suite", "engines,closed-form", "--suite", "closed-form,,engines"],
        ],
    )
    def test_a_suite_named_twice_runs_once(self, capsys, suites):
        code, out, _ = run(capsys, "verify", *suites, "--k", "1..2", "--n", "0..3", "--format", "csv")
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()] == ["suite", "engines", "closed-form"]

    def test_run_suites_runs_a_suite_named_twice_once(self):
        results = verify.run_suites(["tilings", "engines", "tilings"], range(1, 3), range(0, 4))
        assert [res.name for res in results] == ["tilings", "engines"]

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_suite_list_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "verify", "--n", "0..3", "--suite", ",", "--format", fmt)
        assert (code, out) == (2, "")
        assert "no suite named" in err
        assert all(name in err for name in verify.SUITES)

    def test_cap_checked_before_any_suite_runs(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "engines", lambda result, ks, ns, cap, cells: ran.append(ns))
        for suite in ("tilings", "hash-marks", "inclusion-exclusion", "bijection"):
            code, out, err = run(
                capsys, "verify", "--suite", f"engines,{suite}", "--n", "0..30", "--format", "csv"
            )
            assert (code, out, ran) == (2, "", [])
            assert "n=25 exceeds the enumeration cap 24" in err

    def test_cap_check_reads_two_cells_of_a_long_grid(self, monkeypatch):
        calls = []
        check = verify._check_enumerable

        def counted(n, cap):
            calls.append(n)
            check(n, cap)

        monkeypatch.setattr(verify, "_check_enumerable", counted)
        with pytest.raises(CapExceededError, match="n=25 exceeds the enumeration cap 24"):
            verify.run_suites(["tilings"], range(1, 2), range(0, 10**6))
        assert len(calls) <= 3

    @pytest.mark.parametrize(
        "option, grid", [("--n", f"0..{10**30}"), ("--n", f"-{10**30}..0"), ("--k", f"1..{10**30}")]
    )
    def test_grid_bound_checked_before_any_suite_runs(self, capsys, monkeypatch, option, grid):
        # a suite that does not enumerate would sweep the cheap cells first
        ran = []
        monkeypatch.setitem(verify.SUITES, "engines", lambda result, ks, ns, cap, cells: ran.append(ns))
        code, out, err = run(capsys, "verify", "--suite", "engines", option, grid)
        assert (code, out, ran) == (2, "", [])
        assert err.startswith("error: ") and "sys.maxsize" in err

    @staticmethod
    def _suites_run(monkeypatch):
        """The names of the suites that start, in order, as they start."""
        ran = []
        for name, suite in list(verify.SUITES.items()):
            monkeypatch.setitem(
                verify.SUITES, name, lambda *args, name=name, suite=suite: ran.append(name) or suite(*args)
            )
        return ran

    @pytest.mark.parametrize("grid, k", [("0..2", "0"), ("-5..-1", "-5"), (f"0..{10**30}", "0")])
    @pytest.mark.parametrize("suites", [*verify.SUITES, "hash-marks,engines"])
    def test_k_below_1_rejected_before_any_suite_runs(self, capsys, monkeypatch, suites, grid, k):
        # hash-marks reads no k, so it would pass at any k if it ran
        ran = self._suites_run(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", suites, f"--k={grid}", "--n", "0..3")
        assert (code, out, err, ran) == (2, "", f"error: k must be a positive integer, got {k}\n", [])

    @pytest.mark.parametrize("suites", [*verify.SUITES, "hash-marks,engines"])
    def test_negative_n_rejected_before_any_suite_runs(self, capsys, monkeypatch, suites):
        # engines and closed-form do not enumerate, so no cap check stops them
        ran = self._suites_run(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", suites, "--n", "-3..2")
        assert (code, out, err, ran) == (2, "", "error: n must be non-negative, got -3\n", [])

    @pytest.mark.parametrize("names", [["bogus"], ["engines", "bogus"]])
    def test_library_refuses_an_unknown_suite(self, monkeypatch, names):
        ran = self._suites_run(monkeypatch)
        with pytest.raises(ValueError, match=r"unknown suite\(s\) \['bogus'\]; choose from"):
            verify.run_suites(names, range(1, 3), range(0, 4))
        assert ran == []

    @pytest.mark.parametrize(
        "ks, ns",
        [
            (range(2, 3), range(0, 10, 2)),
            (range(1, 5, 2), range(0, 4)),
            (range(2, 3), range(3, -1, -1)),
            (range(1, 1), range(0, 4)),
            (range(1, 3), range(0, 0)),
            (range(1, 3), range(5, 0)),
        ],
    )
    def test_library_refuses_an_empty_or_stepped_grid(self, monkeypatch, ks, ns):
        # a stepped grid would be swept at the wrong indices, and an empty
        # one would pass with no check run
        ran = self._suites_run(monkeypatch)
        with pytest.raises(ValueError, match="grid must be a non-empty range of step 1"):
            verify.run_suites(engines.SUITE_NAMES, ks, ns)
        assert ran == []

    @pytest.mark.parametrize("suites, cap", [*((s, "-1") for s in verify.SUITES), ("engines,closed-form", "-5")])
    def test_malformed_cap_refused_whatever_the_suites(self, capsys, monkeypatch, suites, cap):
        ran = self._suites_run(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", suites, "--cap", cap, "--n", "0..3")
        assert (code, out, ran) == (2, "", [])
        assert err == run(capsys, "tilings", "--k", "2", "--n", "3", "--cap", cap)[2]
        assert err == f"error: enumeration cap must be non-negative, got {cap}\n"

    def test_cap_ignored_by_suites_that_do_not_enumerate(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "engines", "--n", "20..25")
        # 4 k by 6 n cells, one check per registered engine in each, 3 + 3,
        # and per k an int range and a text range of each engine: 144 + 48
        assert (code, out) == (0, "PASS engines checks=192\n")

    def test_identity_suites_share_each_cell(self, monkeypatch):
        ks, ns = range(1, 4), range(0, 9)
        alone = [verify.run_suites([name], ks, ns)[0] for name in ("inclusion-exclusion", "bijection")]
        sweeps = []
        sweep = verify.oversized_members

        def counted(k, n, cap=None):
            sweeps.append((k, n))
            return sweep(k, n, cap)

        monkeypatch.setattr(verify, "oversized_members", counted)
        shared = verify.run_suites(["inclusion-exclusion", "bijection"], ks, ns)
        assert sorted(sweeps) == [(k, n) for k in ks for n in ns]
        assert [(r.name, r.checks, r.failures) for r in shared] == [
            (r.name, r.checks, r.failures) for r in alone
        ]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "engines", "--k", "1..2", "--n", "0..5", "--format", "json"
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["suite"] == "engines"
        assert record["status"] == "pass"
        assert record["failures"] == []

    def test_failure_exits_1(self, capsys, monkeypatch):
        import kbonacci.verify as verify_mod

        monkeypatch.setitem(
            verify_mod.SUITES, "engines", lambda result, *grid: _broken_result(result)
        )
        code, out, _ = run(capsys, "verify", "--suite", "engines")
        assert code == 1
        assert "FAIL engines" in out
        assert "forced mismatch" in out


def _broken_result(result):
    result.expect(False, "forced mismatch")
    return result


class TestBench:
    def test_value_engines_report_identical_values(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--k", "2", "--n", "3000",
            "--engines", "recurrence,dunkel-term,matrix",
            "--reps", "1", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert len({row["value"] for row in rows}) == 1
        assert all(row["elapsed_ns"] >= 0 for row in rows)
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["matrix"]["ops"] < by_engine["recurrence"]["ops"]

    def test_costs_run_no_powering(self, capsys, monkeypatch):
        # one residue per timed run, and none for the ops column
        calls = []
        residue = matrix_power._residue

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return residue(*args, **kwargs)

        monkeypatch.setattr(matrix_power, "_residue", counted)
        code, out, _ = run(
            capsys, "bench", "--k", "3", "--n", "1000", "--engines", "matrix", "--reps", "2"
        )
        # a single index powers to half of it, x^500
        assert (code, calls) == (0, [(3, 500), (3, 500)])
        # 500 = 0b111110100: the leading 0b11 = k is free, and each of the
        # 7 other bits costs a squaring of 6 multiplications, 42; the inner
        # product that finishes f(1000) takes k = 3 more: 45
        assert " ops=45 " in out

    @pytest.mark.parametrize("n", ["5", str(10**22)])
    @pytest.mark.parametrize("k", ["-1", "0"])
    @pytest.mark.parametrize("engine", engines.VALUE_NAMES + engines.SUM_NAMES)
    def test_k_checked_before_any_cost(self, capsys, k, engine, n):
        # the closed forms' models divide by k + 1; k is checked before n
        code, out, err = run(capsys, "bench", "--k", k, "--n", n, "--engines", engine)
        assert (code, out, err) == (2, "", f"error: k must be a positive integer, got {k}\n")

    @pytest.mark.parametrize("table", ["_VALUE_DISPATCH", "_SUM_DISPATCH"])
    def test_value_is_the_text_eval_and_sum_print(self, capsys, monkeypatch, table):
        def stand_in(k, start, stop, text=False):
            yield "marker" if text else 7

        stand_in.cost = lambda k, n: 5
        monkeypatch.setitem(getattr(engines, table), "stand-in", stand_in)
        code, out, _ = run(capsys, "bench", "--k", "2", "--n", "9", "--engines", "stand-in", "--format", "json")
        record = json.loads(out)
        assert (code, record["engine"], record["value"], record["ops"]) == (0, "stand-in", "marker", 5)

    def test_sum_engines_report_identical_values(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--k", "5", "--n", "500",
            "--engines", "dunkel,matrix,direct",
            "--reps", "1", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len({row["value"] for row in rows}) == 1

    def test_rows_sorted_by_engine(self, capsys):
        _, out, _ = run(
            capsys,
            "bench", "--k", "2", "--n", "50",
            "--engines", "recurrence,matrix,dunkel-term",
            "--reps", "1", "--format", "json",
        )
        engines = [json.loads(line)["engine"] for line in out.splitlines()]
        assert engines == sorted(engines)

    def test_trivial_index(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--k", "2", "--n", "0", "--reps", "1", "--format", "json"
        )
        assert code == 0
        assert all(json.loads(line)["value"] == "1" for line in out.splitlines())
        # x^n mod x - 1 is 1, so f(n) = 1 at k = 1 without a powering
        code, out, _ = run(
            capsys, "bench", "--k", "1", "--n", "1000", "--engines", "matrix", "--format", "json"
        )
        record = json.loads(out)
        assert (code, record["value"], record["ops"]) == (0, "1", 0)

    def test_mixed_quantities_rejected(self, capsys):
        code, _, err = run(
            capsys, "bench", "--k", "2", "--n", "10", "--engines", "recurrence,dunkel"
        )
        assert code == 2
        assert "mix" in err

    def test_unknown_engine_rejected(self, capsys):
        for name in ("warp", "dunkel-extended"):
            code, _, err = run(capsys, "bench", "--k", "2", "--n", "10", "--engines", name)
            assert code == 2
            assert "unknown engine" in err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_rejected(self, capsys, reps):
        code, out, err = run(capsys, "bench", "--k", "2", "--n", "10", "--reps", reps)
        assert code == 2
        assert out == ""
        assert "--reps must be at least 1" in err


# int() takes each of these, the CLI none: a space before or after the
# digits, an Arabic-Indic three, '_' between digits and a '+'
_NON_ASCII_INTS = [" 3", "3 ", "\u0663", "1_0", "+5"]
# per subcommand: a valid command's options and values, and its range options
_INT_OPTIONS = {
    "eval": ({"--k": "2", "--n": "4"}, {"--n"}),
    "sum": ({"--k": "2", "--n": "4"}, {"--n"}),
    "terms": ({"--k": "2", "--n": "4"}, set()),
    "tilings": ({"--k": "2", "--n": "4", "--cap": "10"}, set()),
    "verify": ({"--suite": "engines", "--k": "1..2", "--n": "0..3", "--cap": "10"}, {"--k", "--n"}),
    "bench": ({"--k": "2", "--n": "4", "--reps": "1"}, set()),
}


def _int_argv(sub, option=None, value=None):
    argv = [sub]
    for opt, default in _INT_OPTIONS[sub][0].items():
        argv += [opt, value if opt == option else default]
    return argv


def _non_ascii_int_cases():
    for sub, (options, ranges) in _INT_OPTIONS.items():
        for option in options.keys() - {"--suite"}:
            forms = ["{}", "{}..20", "0..{}"] if option in ranges else ["{}"]
            for form in forms:
                for token in _NON_ASCII_INTS:
                    yield sub, option, form.format(token)


@pytest.mark.parametrize("sub", _INT_OPTIONS)
def test_the_int_options_base_command_runs(capsys, sub):
    assert run(capsys, *_int_argv(sub))[0] == 0


@pytest.mark.parametrize("sub, option, value", sorted(_non_ascii_int_cases()))
def test_an_int_is_ascii_digits_after_an_optional_minus(capsys, sub, option, value):
    with pytest.raises(SystemExit) as exc:
        main(_int_argv(sub, option, value))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: kbonacci ") and f"error: argument {option}: invalid " in err


def test_usage_error_exits_2(capsys):
    for argv, message in [
        (["eval", "--k", "2"], "required"),  # --n missing
        (["sum", "--k", "2", "--n", "4", "--m", "2"], "unrecognized arguments: --m 2"),
        (["bench", "--k", "2", "--n", "10", "--m", "3"], "unrecognized arguments: --m 3"),
        (["sum", "--k", "2", "--n", "4", "--engine", "dunkel-extended"], "invalid choice"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert message in err, argv


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_a_cells_engines_print_the_same_text(cell):
    # the table that CI also runs against the installed package
    assert disagreements([cell]) == []


class TestOneParser:
    """main parses every command of a process with one parser, and no
    command leaves anything in it for the next."""

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser()
        per_build = len(built)
        cli._parser.cache_clear()
        del built[:]
        for sub in ("eval", "sum", "terms"):
            assert run(capsys, sub, "--k", "2", "--n", "4")[0] == 0
        assert per_build == 7 and len(built) == per_build

    def test_a_suite_list_does_not_carry_over(self, capsys):
        grid = ("--k", "1..2", "--n", "0..3")
        code, out, _ = run(capsys, "verify", "--suite", "engines", *grid)
        assert (code, out.count("PASS")) == (0, 1)
        code, out, _ = run(capsys, "verify", *grid)
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == list(verify.SUITES)

    def test_a_usage_error_leaves_the_next_command_whole(self, capsys):
        for argv in (["eval", "--k", "2"], ["verify", "--suite"]):
            err = io.StringIO()
            with redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert err.getvalue().startswith(f"usage: kbonacci {argv[0]} ")
            assert run(capsys, "eval", "--k", "2", "--n", "4") == (0, "5\n", "")

    @pytest.mark.parametrize("sub, name", [("eval", "stream_values"), ("sum", "stream_sums")])
    def test_a_stream_patched_after_a_command_is_the_one_called(self, capsys, monkeypatch, sub, name):
        assert run(capsys, sub, "--k", "2", "--n", "4")[0] == 0

        def patched(k, start, stop, engine, text=False):
            yield f"{name} {k} {start} {stop}"

        monkeypatch.setattr(cli, name, patched)
        assert run(capsys, sub, "--k", "2", "--n", "4") == (0, f"{name} 2 4 5\n", "")

    def test_building_the_parser_rebinds_no_module_name(self, capsys):
        before = dict(vars(cli))
        cli._parser.cache_clear()
        assert run(capsys, "eval", "--k", "2", "--n", "4")[0] == 0
        assert run(capsys, "bench", "--k", "2", "--n", "4", "--reps", "1")[0] == 0
        assert dict(vars(cli)) == before

    @pytest.mark.parametrize("columns", ["60", "120"])
    def test_help_is_a_fresh_parsers_help(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(capsys, "sum", "--k", "2", "--n", "0..3")[0] == 0
        with pytest.raises(SystemExit):
            main(["eval", "--k", "x"])
        fresh = build_parser()
        helps = {(): fresh.format_help()}
        helps.update(((sub,), parser.format_help()) for sub, parser in _subparsers(fresh).items())
        assert len(helps) == 7
        for argv, text in helps.items():
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert (exc.value.code, capsys.readouterr()) == (0, (text, "")), argv


# Tokens of the error contract's fuzz: numbers legal and not, ranges of
# them, and each choice with one invalid name; small legal tokens are drawn
# half the time, so that some commands run.  No legal draw runs long: an
# index is at most 25, and the one legal huge value, k = sys.maxsize,
# keeps every index below k, where the values are powers of two.  --reps
# stays small, since nothing bounds the work of a legal huge count.
_SMALL_NUMBERS = st.sampled_from(["1", "25", "0", "-1"])
_FUZZ_NUMBERS = _SMALL_NUMBERS | st.sampled_from(
    ["0", "1", "-1", "25", str(10**30), str(-(10**30)), str(sys.maxsize), str(sys.maxsize + 1)]
    + ["1.5", "True", "", "0x10", " 5", "\u0663"]
)
_FUZZ_RANGES = st.one_of(
    _FUZZ_NUMBERS,
    st.builds("{}..{}".format, _FUZZ_NUMBERS, _FUZZ_NUMBERS),
    st.sampled_from(["..", "5..2", "0..3..4"]),
)
_FUZZ_NAMES = st.sampled_from([*engines.VALUE_NAMES, *engines.SUM_NAMES, "warp"])


@st.composite
def _fuzz_argv(draw):
    sub = draw(st.sampled_from(["eval", "sum", "bench"]))
    names = st.sampled_from(engines.SUM_NAMES if sub == "sum" else engines.VALUE_NAMES) | _FUZZ_NAMES
    options = {"--k": _FUZZ_NUMBERS, "--n": _FUZZ_RANGES, "--format": st.sampled_from([*FORMATS, "xml"])}
    if sub == "bench":  # its --n is one index
        options["--n"] = _FUZZ_NUMBERS
        options["--engines"] = st.lists(names, max_size=3).map(",".join) | st.just(",")
        options["--reps"] = st.sampled_from(["0", "1", "2", "-1", "1.5", ""])
    else:
        options["--engine"] = names
    argv = [sub]
    for option in draw(st.permutations(list(options))):
        # the required --k and --n nearly always; Hypothesis leans to 0
        if draw(st.integers(0, 7)) < (7 if option in ("--k", "--n") else 4):
            argv += [option, draw(options[option])]
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_fuzz_argv())
def test_eval_sum_and_bench_exit_0_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    # any other exception, a traceback, fails the test
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and err == "", argv
    else:
        lines = err.splitlines()
        assert (code, out) == (2, ""), argv
        assert re.match(r"(kbonacci( \w+)?: )?error: \S", lines[-1]), (argv, err)
        assert sum("error:" in line for line in lines) == 1, (argv, err)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_digit_limit_restored_after_main(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "30000", "--engine", "matrix")
        assert code == 0
        assert len(out.strip()) > 5000  # the output does not depend on the limit
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["eval", "--k", "2"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture(scope="module")
def digits_at_100000():
    """str() of f(100000) and S(100000) at k=2, from the linear engines."""
    with digit_limit(0):
        return {
            "eval": str(compute_value(2, 100_000, "recurrence")),
            "sum": str(compute_sum(2, 100_000, "direct")),
        }


@needs_digit_limit
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sub", ["eval", "sum"])
def test_large_values_print_every_digit(capsys, digits_at_100000, sub, fmt):
    argv = (sub, "--k", "2", "--n", "100000", "--engine", "matrix", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if fmt == "plain":
        value = out.strip()
    elif fmt == "json":
        value = json.loads(out)["value"]
    else:
        header, row = out.splitlines()
        assert header == "k,n,engine,value"
        value = row.split(",")[3]
    assert value == digits_at_100000[sub]


@needs_digit_limit
def test_output_ignores_the_digit_limit(capsys):
    with digit_limit(0):
        value = str(compute_value(2, 30_000, "recurrence"))
        rows = [
            f"{t.j} {'+' if t.sign > 0 else '-'} {t.magnitude}"
            for t in term_breakdown(2, 5000)
        ]
    assert len(value) > 640
    assert max(len(row) for row in rows) > 640
    with digit_limit(640):
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "30000", "--engine", "matrix")
        assert (code, out) == (0, value + "\n")
        code, out, _ = run(capsys, "terms", "--k", "2", "--n", "5000", "--format", "plain")
        assert (code, out.splitlines()) == (0, rows)
