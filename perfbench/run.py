"""Benchmark of the kbonacci CLI: one seeded workload per process.

    python3 perfbench/run.py --workload big-index --seed 1 --seconds 25 --trace 0

Runs the workload's command list through `kbonacci.cli.main`, one command
at a time (a closed loop with one client, no threads), in whole rounds
until --seconds have passed, and checks every command's output after the
round's timer stops.  A command is one operation; it fails on a non-zero
exit or a failed check.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, as seconds at a fixed reference
speed: each time is rescaled by a reference task timed just before and
just after it (see `reference_task`).  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones; it
also writes the spans of its last traced round to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_CODE = "import kbonacci.cli as cli; cli.build_parser()"
SETUP_WARMUPS = 2  # the first start in a fresh checkout compiles bytecode
SETUP_PER_ROUND = 4
REFERENCE_S = 0.025  # reported times are for a machine on which reference_task() takes this long
_REFERENCE_INT = 3**60_000


class Sink:
    """Stands in for stdout: keeps what was written and when it began."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None and text:
            self.first = perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_command(cli, argv, tracer=None):
    """(exit code, seconds, seconds to first output byte, stdout, stderr)."""
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        if tracer is None:
            code = cli.main(list(argv))
        else:
            code = tracer.run(tracer.open("cli"), cli.main, list(argv))
    except SystemExit as exc:  # argparse rejects usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed operation, not a benchmark abort
        code = -1
        err.write(traceback.format_exc())
    finally:
        end = perf_counter()
        sys.stdout, sys.stderr = saved
    first = out.first if out.first is not None else end
    return code, end - start, first - start, out.parts, err.parts


def reference_task() -> float:
    """Seconds that a fixed piece of work takes now: an interpreter loop and
    six squarings of a 95,000-bit integer.

    It uses nothing from kbonacci, so it tracks the speed of the machine and
    not that of the program.  On a shared host that speed drifts by up to
    1.5x over tens of seconds, and the program's times drift with it; the
    reference task timed around a command moves with them.
    """
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(6):
        _REFERENCE_INT * _REFERENCE_INT
    return perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """seconds, rescaled to a machine on which the reference task takes
    REFERENCE_S; before and after are the reference task's times around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_round(cli, commands, tracer=None, calibrate=False):
    """(wall seconds, one result per command, reference task times).

    With calibrate, the reference task runs before the first command and
    after every command, so command i lies between refs[i] and refs[i + 1];
    the wall time then includes them."""
    gc.collect()
    results, refs = [], []
    start = perf_counter()
    if calibrate:
        refs.append(reference_task())
    for i, command in enumerate(commands):
        if tracer is not None:
            tracer.cmd = i
        results.append(run_command(cli, command.argv, tracer))
        if calibrate:
            refs.append(reference_task())
    return perf_counter() - start, results, refs


class Tally:
    """Attempted and failed operations; failures are described on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 but printed a wrong result

    def check(self, commands, results) -> None:
        for command, (code, _, _, out, err) in zip(commands, results):
            self.attempted += 1
            reason = command.check("".join(out)) if code == 0 else f"exit code {code}: {''.join(err)[-500:]}"
            if reason is not None:
                self.failed += 1
                self.wrong += code == 0
                if self.failed <= 5:
                    print(f"FAILED {' '.join(command.argv)}: {reason}", file=sys.stderr)


def start_cli(env: dict, samples: list[float], refs: list[float]) -> None:
    """Start a fresh interpreter that imports the CLI and builds its parser;
    append its time at reference speed to samples."""
    before = reference_task()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    after = reference_task()
    samples.append(at_reference_speed(elapsed, before, after))
    refs += before, after


def end_to_end(cli, commands, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_WARMUPS):
        start_cli(env, [], [])
    setups, walls, times, firsts, refs = [], [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        _, results, round_refs = run_round(cli, commands, calibrate=True)
        last = perf_counter() >= deadline
        if last:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        around = list(zip(round_refs, round_refs[1:]))
        round_times = [at_reference_speed(r[1], *ref) for r, ref in zip(results, around)]
        walls.append(sum(round_times))
        times += round_times
        firsts += [at_reference_speed(r[2], *ref) for r, ref in zip(results, around)]
        refs += round_refs
        tally.check(commands, results)
        # Fresh starts are spread over the run, so that they see the same
        # machine as the rounds do.
        for _ in range(SETUP_PER_ROUND):
            start_cli(env, setups, refs)
        if last:
            break
    print(f"perfbench: reference task median {statistics.median(refs) * 1e3:.2f} ms "
          f"(times are rescaled to {REFERENCE_S * 1e3:g} ms)", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "first_out_p50_s": (statistics.median(firsts), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def per_layer(cli, commands, seconds: float, tally: Tally, trace_path: Path) -> dict[str, tuple[float, str]]:
    import tracing  # imports kbonacci, so only once src/ is on the path

    plain_walls, traced_walls, unattributed, rounds = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        wall, results, _ = run_round(cli, commands)
        plain_walls.append(wall)
        tally.check(commands, results)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            origin = perf_counter()
            wall, results, _ = run_round(cli, commands, tracer)
        traced_walls.append(wall)
        unattributed.append(wall - tracer.root_busy())
        metrics = tracing.round_metrics(tracer)
        texts = ["".join(r[3]) for r in results]
        metrics["cli.out_bytes"] = sum(len(t.encode()) for t in texts)
        metrics["cli.records"] = sum(t.count("\n") for t in texts)
        rounds.append(metrics)
        tally.check(commands, results)
        if perf_counter() >= deadline:
            break
    OUT.mkdir(exist_ok=True)
    trace = {"argv": [list(c.argv) for c in commands], "spans": tracing.dump_spans(tracer, origin)}
    trace_path.write_text(json.dumps(trace))
    report = {name: (statistics.median(r[name] for r in rounds), _unit(name)) for name in rounds[0]}
    report["trace.wall_s"] = (statistics.median(traced_walls), "s")
    report["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    report["trace.unattributed_s"] = (statistics.median(unattributed), "s")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kbonacci" / "cli.py").is_file():
        print(f"perfbench: no kbonacci sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kbonacci import cli

    if Path(cli.__file__).resolve().parent != SRC / "kbonacci":
        print(f"perfbench: imported kbonacci from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    commands = workloads.build(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        metrics = per_layer(cli, commands, args.seconds, tally, trace_path)
    else:
        metrics = end_to_end(cli, commands, args.seconds, tally)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
