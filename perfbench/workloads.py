"""Seeded command lists for the four workloads.

Each workload is a fixed list of strata: one stratum is one CLI command
form with its size.  Every list has an odd length, so the median command
of a run is always the middle stratum, whatever the number of rounds.  The
order of the strata is fixed, because the outputs a round holds when its
largest command runs count in the peak RSS.  The seed draws the inputs
inside each stratum, but only where the amount of work stays put, so the
spread between seeds stays below the benchmark's bounds:

* matrix indices keep their top bits and get a fixed number of random low
  bits, so binary powering does the same number of matrix products and the
  values keep their size to within about 1%;
* ranges start at a random offset of under 2% of their index;
* verify grids start their n range at a random cell below which the grid
  carries about 1% of its cost (the tiling suites are exponential in n);
* tilings commands get a random --cap at or above their n.

The program receives only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


def _low_bits(rng: random.Random, base: int, width: int, ones: int) -> int:
    """base with its low `width` bits replaced by `ones` random set bits."""
    return (base >> width << width) | sum(1 << b for b in rng.sample(range(width), ones))


def _format_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "plain" else ("--format", fmt)


def _single(sub: str, k: int, n: int, fmt: str) -> Command:
    argv = (sub, "--k", str(k), "--n", str(n), "--engine", "matrix", *_format_args(fmt))
    quantity = "f" if sub == "eval" else "S"
    return Command(argv, partial(checks.check_value, quantity=quantity, k=k, n=n, fmt=fmt, engine="matrix"))


# (subcommand, k, n, format): few huge squarings plus a quadratic int->str.
BIG_INDEX = [
    ("eval", 2, 1_000_000, "plain"),
    ("sum", 2, 400_000, "json"),
    ("eval", 3, 350_000, "csv"),
    ("sum", 3, 250_000, "plain"),
    ("eval", 4, 200_000, "json"),
]


def big_index(rng: random.Random) -> list[Command]:
    return [_single(sub, k, _low_bits(rng, n, 11, 5), fmt) for sub, k, n, fmt in BIG_INDEX]


# (subcommand, k, n, format): k^3 products of few-thousand-digit entries.
WIDE_WINDOW = [
    ("eval", 10, 20_000, "plain"),
    ("sum", 12, 16_000, "json"),
    ("eval", 16, 12_000, "plain"),
    ("sum", 20, 9_000, "csv"),
    ("eval", 24, 7_000, "plain"),
    ("sum", 27, 6_000, "json"),
    ("eval", 30, 5_000, "plain"),
]


def wide_window(rng: random.Random) -> list[Command]:
    return [_single(sub, k, _low_bits(rng, n, 6, 3), fmt) for sub, k, n, fmt in WIDE_WINDOW]


# (subcommand, engine, k, first index, records, format): every engine,
# many mid-size evaluations, all records built before the first is written.
RANGE_SWEEP = [
    ("eval", "recurrence", 3, 7_500, 56, "plain"),
    ("eval", "recurrence", 7, 6_000, 50, "json"),
    ("eval", "dunkel-term", 4, 4_500, 44, "csv"),
    ("eval", "dunkel-term", 6, 5_000, 44, "plain"),
    ("eval", "matrix", 8, 4_500, 42, "json"),
    ("eval", "matrix", 3, 9_000, 56, "plain"),
    ("eval", "matrix", 5, 6_000, 48, "csv"),
    ("sum", "direct", 5, 6_500, 50, "csv"),
    ("sum", "direct", 8, 6_000, 50, "plain"),
    ("sum", "dunkel", 6, 7_000, 56, "json"),
    ("sum", "dunkel", 3, 6_000, 56, "plain"),
    ("sum", "matrix", 7, 5_000, 44, "csv"),
    ("sum", "matrix", 4, 7_000, 50, "plain"),
]


def range_sweep(rng: random.Random) -> list[Command]:
    commands = []
    for sub, engine, k, first, count, fmt in RANGE_SWEEP:
        a = first + rng.randrange(first // 50)
        ns = range(a, a + count)
        argv = (sub, "--k", str(k), "--n", f"{a}..{ns[-1]}", "--engine", engine, *_format_args(fmt))
        quantity = "f" if sub == "eval" else "S"
        check = partial(checks.check_range, quantity=quantity, k=k, ns=ns, fmt=fmt, engine=engine)
        commands.append(Command(argv, check))
    return commands


ALL_SUITES = ("engines", "closed-form", "tilings", "hash-marks", "inclusion-exclusion", "bijection")
# (suites, k range, last n, format): brute-force tiling sweeps.
LAB_VERIFY = [
    (("inclusion-exclusion", "bijection"), "1..4", 10, "plain"),
    (("bijection",), "2..4", 11, "json"),
    (("inclusion-exclusion",), "1..2", 10, "csv"),
    (("tilings", "hash-marks"), "1..4", 12, "plain"),
    (("hash-marks",), "1..1", 13, "json"),
    (("engines", "closed-form", "tilings"), "1..4", 14, "plain"),
    (None, None, 10, "csv"),  # the default form: every suite, k 1..4
]
# (k, n, bounded, count only, format): listings and counts.
LAB_TILINGS = [
    (3, 16, False, False, "plain"),
    (2, 20, False, False, "json"),
    (4, 14, True, False, "csv"),
    (2, 18, True, False, "plain"),
    (4, 17, False, True, "plain"),
    (3, 16, True, True, "json"),
]


def lab_grid(rng: random.Random) -> list[Command]:
    commands = []
    for suites, ks, last, fmt in LAB_VERIFY:
        argv = ("verify",)
        if suites is None:
            suites = ALL_SUITES
        else:
            argv += ("--suite", ",".join(suites), "--k", ks)
        argv += ("--n", f"{rng.randrange(last - 6)}..{last}", *_format_args(fmt))
        commands.append(Command(argv, partial(checks.check_verify, suites=suites, fmt=fmt)))
    for k, n, bounded, count, fmt in LAB_TILINGS:
        argv = ("tilings", "--k", str(k), "--n", str(n), "--cap", str(rng.randint(n, 24)))
        argv += ("--bounded",) * bounded + ("--count",) * count + _format_args(fmt)
        check = checks.check_count if count else checks.check_tilings
        commands.append(Command(argv, partial(check, k=k, n=n, bounded=bounded, fmt=fmt)))
    return commands


WORKLOADS = {
    "big-index": big_index,
    "wide-window": wide_window,
    "range-sweep": range_sweep,
    "lab-grid": lab_grid,
}


def build(name: str, seed: int) -> list[Command]:
    """The workload's command list for this seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
