"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench

Each check must pass the program's real output and reject that output with
one wrong digit or one dropped record.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kbonacci import cli, engines  # noqa: E402


def cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def naive(k: int, n: int) -> list[int]:
    f = [1]
    for t in range(1, n + 1):
        f.append(sum(f[max(0, t - k):t]))
    return f


def wrong_digit(text: str, pos: int) -> str:
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def value_start(line: str, fmt: str) -> int:
    """Where the decimal value begins in one eval/sum record."""
    if fmt == "json":
        return line.index('"value":"') + len('"value":"')
    return line.rindex(",") + 1 if fmt == "csv" else 0


def drop_line(out: str, index: int) -> str:
    lines = out.split("\n")
    del lines[index]
    return "\n".join(lines)


@pytest.mark.parametrize("k", range(1, 7))
def test_expected_mod_matches_exact_values(k):
    f = naive(k, 80)
    for n in range(81):
        for m in (checks.PRIME, checks.TEN18, 97):
            assert checks.expected_mod("f", k, n, m) == f[n] % m
            assert checks.expected_mod("S", k, n, m) == sum(f[: n + 1]) % m


def test_decimal_mod_reads_long_values():
    value = 7**5000
    assert checks.decimal_mod(str(value), checks.PRIME) == value % checks.PRIME


@pytest.mark.parametrize("k,n", [(1, 6), (2, 7), (3, 8), (4, 9)])
def test_tiling_count_matches_brute_force(k, n):
    exact = bounded = 0
    for length in range(n + 1):
        for tiles in itertools.product(range(1, k + 1), repeat=length):
            exact += sum(tiles) == n
            bounded += sum(tiles) <= n
    assert checks.tiling_count(k, n, False) == exact
    assert checks.tiling_count(k, n, True) == bounded


@pytest.mark.parametrize("sub,quantity,fmt", [("eval", "f", "plain"), ("sum", "S", "json"), ("eval", "f", "csv")])
def test_value_check_rejects_one_wrong_digit(sub, quantity, fmt):
    k, n = 3, 3001
    out = cli_output(sub, "--k", str(k), "--n", str(n), "--engine", "matrix", "--format", fmt)
    check = dict(quantity=quantity, k=k, n=n, fmt=fmt, engine="matrix")
    assert checks.check_value(out, **check) is None
    line = out.split("\n")[-2]
    line_start = len(out) - len(line) - 1
    end = line_start + len(line) - 2 * (fmt == "json")  # json closes with '"}'
    for pos in (line_start + value_start(line, fmt) + 100, end - 3):  # a high digit and a low one
        assert checks.check_value(wrong_digit(out, pos), **check) is not None
    assert checks.check_value("", **check) is not None


@pytest.mark.parametrize("sub,quantity,engine,fmt", [
    ("eval", "f", "recurrence", "plain"),
    ("eval", "f", "dunkel-term", "json"),
    ("sum", "S", "dunkel", "csv"),
    ("sum", "S", "matrix", "plain"),
])
def test_range_check_rejects_wrong_digit_and_dropped_record(sub, quantity, engine, fmt):
    k, ns = 4, range(300, 340)
    out = cli_output(sub, "--k", str(k), "--n", "300..339", "--engine", engine, "--format", fmt)
    check = dict(quantity=quantity, k=k, ns=ns, fmt=fmt, engine=engine)
    assert checks.check_range(out, **check) is None
    lines = out.split("\n")
    row = len(lines) - 10  # a record past the anchors
    lines[row] = wrong_digit(lines[row], value_start(lines[row], fmt) + 5)
    assert checks.check_range("\n".join(lines), **check) is not None
    assert checks.check_range(drop_line(out, 20), **check) is not None
    assert checks.check_range(drop_line(out, len(out.split("\n")) - 2), **check) is not None


@pytest.mark.parametrize("k,n,bounded,fmt", [(3, 9, False, "plain"), (2, 8, False, "json"), (4, 7, True, "csv")])
def test_listing_check_rejects_corruption(k, n, bounded, fmt):
    argv = ["tilings", "--k", str(k), "--n", str(n), "--format", fmt] + ["--bounded"] * bounded
    out = cli_output(*argv)
    check = dict(k=k, n=n, bounded=bounded, fmt=fmt)
    assert checks.check_tilings(out, **check) is None
    lines = out.split("\n")
    assert checks.check_tilings(drop_line(out, 5), **check) is not None
    duplicated = lines[:6] + [lines[5]] + lines[7:]
    assert checks.check_tilings("\n".join(duplicated), **check) is not None
    swapped = lines[:5] + [lines[6], lines[5]] + lines[7:]
    assert checks.check_tilings("\n".join(swapped), **check) is not None


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_count_check_rejects_a_wrong_count(fmt):
    out = cli_output("tilings", "--k", "3", "--n", "12", "--count", "--format", fmt)
    check = dict(k=3, n=12, bounded=False, fmt=fmt)
    assert checks.check_count(out, **check) is None
    count = str(checks.tiling_count(3, 12, False))
    assert checks.check_count(out.replace(count, str(int(count) + 1)), **check) is not None


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_check_rejects_failed_or_missing_suites(fmt):
    suites = ("tilings", "bijection")
    out = cli_output("verify", "--suite", ",".join(suites), "--k", "1..3", "--n", "0..7", "--format", fmt)
    assert checks.check_verify(out, suites, fmt) is None
    failed = out.replace("PASS", "FAIL").replace('"pass"', '"fail"').replace(",pass", ",fail")
    assert checks.check_verify(failed, suites, fmt) is not None
    assert checks.check_verify(drop_line(out, len(out.split("\n")) - 2), suites, fmt) is not None


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        first = [c.argv for c in workloads.build(name, 1)]
        assert first == [c.argv for c in workloads.build(name, 1)]
        assert first != [c.argv for c in workloads.build(name, 2)]


def test_tracing_restores_the_program():
    before = (dict(vars(cli)), dict(engines._VALUE_DISPATCH))
    tracer = tracing.Tracer()
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        tracer.run(tracer.open("cli"), cli.main, ["eval", "--k", "12", "--n", "100..130", "--engine", "matrix"])
        tracer.run(tracer.open("cli"), cli.main, ["verify", "--suite", "inclusion-exclusion,bijection", "--n", "0..8"])
    assert (dict(vars(cli)), dict(engines._VALUE_DISPATCH)) == before
    metrics = tracing.round_metrics(tracer)
    assert metrics["matrix_power.calls"] == 31
    assert metrics["engines.calls"] == 31
    assert metrics["tilings.identity_useful_ratio"] == 0.5
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_busy())
