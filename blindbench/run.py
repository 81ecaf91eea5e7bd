#!/usr/bin/env python3
"""End-to-end benchmark of the blindsim CLI.

Run from the root of a source checkout:

    python3 blindbench/run.py --workload attack-summary --seed 1 --seconds 30 --trace 0

One process, one client, one command at a time (a closed loop, `--workers 1`).
Commands run in-process through `blindsim.cli.main`, so the import is paid once;
its cost is measured separately, over fresh interpreters, as `setup_s`. After one
untimed warm-up command, commands run back to back for `--seconds` of wall time,
and every command's output is checked against closed forms worked out in
`checks.py`. A fresh interpreter for `setup_s` is timed before every
SETUP_EVERY-th command, outside the command timings, so that `setup_s` spans
the run like the command times do.

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics, taken from spans that `spans.py` records around each layer's public
functions, and writes the spans to `.blindbench_out/`. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 when a check or a command failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from spans import PEAK_SPANS, TRACED, Tracer, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".blindbench_out"

# one fresh interpreter for setup_s before every SETUP_EVERY-th timed command; each
# takes about as long as one or two commands, so a rarer sample leaves more of
# the run to the commands themselves
SETUP_EVERY = 5
# fresh interpreters per traced run for the import-time split
IMPORT_SAMPLES = 3
MB = float(1 << 20)

ATTACK_ROUNDS = 2_000_000
SWEEP_START, SWEEP_STOP, SWEEP_STEPS, SWEEP_ROUNDS = 0.2, 0.7, 40, 200_000

SETUP_CODE = (
    "import sys\n"
    "from blindsim.cli import main\n"
    f"sys.exit(main(['bounds', '--eta', '{checks.BOUNDS_ETA}']))\n"
)


def attack_argv(seed: int, work: Path) -> list[str]:
    return [
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", str(ATTACK_ROUNDS), "--seed", str(seed), "--workers", "1",
        "--out", str(work / "summary.json"),
    ]


def sweep_argv(seed: int, work: Path) -> list[str]:
    return [
        "sweep", "--axis", "alpha", "--scenario", "double-ekert",
        "--start", str(SWEEP_START), "--stop", str(SWEEP_STOP), "--steps", str(SWEEP_STEPS),
        "--rounds", str(SWEEP_ROUNDS), "--seed", str(seed), "--workers", "1",
        "--out", str(work / "sweep.csv"),
    ]


@dataclass(frozen=True)
class Workload:
    rounds: int  # rounds simulated and fully processed by one command
    output: str  # the file one command writes into its work directory
    argv: Callable[[int, Path], list[str]]  # (command seed, work directory) -> CLI arguments
    check: Callable[[str], list[str]]  # output text -> errors


WORKLOADS = {
    "attack-summary": Workload(
        ATTACK_ROUNDS, "summary.json", attack_argv,
        lambda text: checks.check_attack_summary(text, ATTACK_ROUNDS),
    ),
    "alpha-sweep": Workload(
        SWEEP_STEPS * SWEEP_ROUNDS, "sweep.csv", sweep_argv,
        lambda text: checks.check_alpha_sweep(
            text, SWEEP_START, SWEEP_STOP, SWEEP_STEPS, SWEEP_ROUNDS
        ),
    ),
}


class Run:
    """Counts and check failures of one benchmark run."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        # command i gets its own --seed, a pure function of (workload, seed, i)
        rng = random.Random(f"{name}:{seed}")
        self.next_seed = lambda: rng.getrandbits(32)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def command(self, argv: list[str], counted: bool = True) -> float | None:
        """Run one CLI command in-process; its wall time, or None if it failed."""
        from blindsim.cli import main

        # a CLI user's command starts in a fresh process with no garbage left by
        # an earlier command, so collect it here, outside the timing
        gc.collect()
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        if counted:
            self.attempted += 1
        if rc != 0:
            self.failed += counted
            self.errors.append(f"exit code {rc} from blindsim {' '.join(argv)}")
            return None
        return elapsed

    def check(self, work: Path) -> None:
        text = (work / self.workload.output).read_text()
        self.errors += [f"{self.name}: {e}" for e in self.workload.check(text)]


def fresh_interpreter(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - start, proc


def setup_sample(run: Run) -> float:
    """Wall time of one fresh interpreter that imports blindsim.cli and runs `bounds`."""
    elapsed, proc = fresh_interpreter(["-c", SETUP_CODE])
    if proc.returncode != 0:
        run.errors.append(f"setup command exited {proc.returncode}: {proc.stderr.strip()}")
    else:
        run.errors += [f"setup: {e}" for e in checks.check_bounds(proc.stdout)]
    return elapsed


def import_split(stderr: str) -> dict[str, float]:
    """Seconds spent importing scipy, numpy and blindsim's own modules.

    `-X importtime` prints each module after the modules it imported, indented
    by depth. scipy and numpy are charged the cumulative time of the modules
    that blindsim's own modules import from them, blindsim its self time.
    """
    entries, pending = [], []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cum, label = line[len("import time:"):].split("|")
        depth = len(label) - len(label.lstrip())
        entry = {"name": label.strip(), "own": int(own), "cum": int(cum), "parent": ""}
        while pending and pending[-1][0] > depth:
            pending.pop()[1]["parent"] = entry["name"]
        pending.append((depth, entry))
        entries.append(entry)

    def inside(name, package):
        return name == package or name.startswith(package + ".")

    def entering(package):
        return sum(
            e["cum"] for e in entries
            if inside(e["name"], package) and inside(e["parent"], "blindsim")
        ) / 1e6

    return {
        "import.scipy_stats_s": entering("scipy"),
        "import.numpy_s": entering("numpy"),
        "import.blindsim_self_s": sum(e["own"] for e in entries if inside(e["name"], "blindsim")) / 1e6,
    }


def measure_imports(run: Run) -> dict[str, float]:
    """Median import-time split over fresh `python -X importtime -c 'import blindsim.cli'`."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = fresh_interpreter(["-X", "importtime", "-c", "import blindsim.cli"])
        if proc.returncode != 0:
            run.errors.append(f"import of blindsim.cli failed: {proc.stderr.strip()[-500:]}")
        else:
            samples.append(import_split(proc.stderr))
    if not samples:
        return {}
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def import_program() -> None:
    if not (SRC / "blindsim" / "cli.py").is_file():
        raise SystemExit(f"blindbench: no blindsim sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import blindsim.cli  # noqa: F401


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    argv = run.workload.argv
    run.command(argv(run.next_seed(), run.work), counted=False)  # warm-up
    run.check(run.work)
    times, setup_times = [], []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        if run.attempted % SETUP_EVERY == 0:
            setup_times.append(setup_sample(run))
        elapsed = run.command(argv(run.next_seed(), run.work))
        if elapsed is not None:
            times.append(elapsed)
            run.check(run.work)
    if not times:
        raise SystemExit("blindbench: every timed command failed")
    return {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": run.workload.rounds * len(times) / sum(times),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }


def _same_outputs(run: Run, a: Path, b: Path) -> None:
    name = run.workload.output
    if (a / name).read_bytes() != (b / name).read_bytes():
        run.errors.append(f"traced command wrote a different {name} than the untraced one")


def per_layer(run: Run, seconds: float, trace_path: Path) -> dict[str, float]:
    """Pairs of an untraced and a traced run of the same command, repeated.

    One extra run under tracemalloc, before the pairs, gives the memory peaks;
    it is kept out of the timed pairs because tracemalloc slows every
    Python-level allocation.
    """
    metrics = measure_imports(run)
    plain_dir, traced_dir, mem_dir = (run.work / d for d in ("plain", "traced", "mem"))
    for d in (plain_dir, traced_dir, mem_dir):
        d.mkdir()

    argv = run.workload.argv

    def rerun(seed, work, tracer):
        tracer.install()
        try:
            return run.command(argv(seed, work), counted=False)
        finally:
            tracer.uninstall()

    seed = run.next_seed()
    run.command(argv(seed, plain_dir), counted=False)  # warm-up
    run.check(plain_dir)
    memory = Tracer()
    tracemalloc.start()
    try:
        rerun(seed, mem_dir, memory)
    finally:
        tracemalloc.stop()
    _same_outputs(run, plain_dir, mem_dir)

    timing = Tracer()
    plain_s, traced_s = [], []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        seed = run.next_seed()
        elapsed = run.command(argv(seed, plain_dir))
        if elapsed is None:
            continue
        run.check(plain_dir)
        timing.command = len(plain_s)
        traced = rerun(seed, traced_dir, timing)
        if traced is None:
            break
        _same_outputs(run, plain_dir, traced_dir)
        plain_s.append(elapsed)
        traced_s.append(traced)
    if not plain_s:
        raise SystemExit("blindbench: every traced command failed")

    metrics.update(layer_metrics(timing, len(plain_s)))
    for name in PEAK_SPANS:
        peaks = [s[5] for s in memory.spans if s[0] == name]
        metrics[f"{name}_peak_mb"] = max(peaks, default=0) / MB
    # the median command time jumps between the host's speeds from run to run, so it
    # is reported here, without a bound, and not among the end-to-end metrics
    metrics["cli.command_s_p50"] = statistics.median(plain_s)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - metrics["cli.command_s_p50"]

    top = [0.0] * len(plain_s)
    for s in timing.spans:
        if s[3] < 0:
            top[s[4]] += s[2] - s[1]
    trace_path.write_text(json.dumps({
        "workload": run.name,
        "columns": ["name", "start", "end", "parent", "command", "peak_bytes"],
        "spans": timing.spans,
        "memory_spans": memory.spans,
        "untraced_command_s": plain_s,
        "traced_command_s": traced_s,
        "top_level_span_s": top,
    }) + "\n")
    return metrics


def layer_metrics(timing: Tracer, n_commands: int) -> dict[str, float]:
    """Per-command totals per span name, as the median over traced commands."""
    from blindsim.sources import CHUNK_ROUNDS

    def per_command(values):
        """values: iterable of (command, name, amount) -> {name: [total per command]}"""
        totals: dict[str, list[float]] = {}
        for command, name, amount in values:
            totals.setdefault(name, [0.0] * n_commands)[command] += amount
        return totals

    def med(totals, name):
        return statistics.median(totals[name]) if name in totals else 0.0

    spans = timing.spans
    total = per_command((s[4], s[0], s[2] - s[1]) for s in spans)
    own = per_command((s[4], s[0], t) for s, t in zip(spans, self_times(spans)))
    calls = per_command((s[4], s[0], 1) for s in spans)

    metrics = {
        f"{layer}.{fn}_s": med(total, f"{layer}.{fn}") for layer, fns in TRACED.items() for fn in fns
    }
    metrics["protocol.run_session_self_s"] = med(own, "protocol.run_session")
    metrics["cli.build_summary_self_s"] = med(own, "cli.build_summary")

    kept = sum(n for _, n, _ in timing.sessions)
    metrics["protocol.draw_use_ratio"] = kept / (sum(calls["sources.chunk_stream"]) * CHUNK_ROUNDS)
    metrics["protocol.retained_bytes_per_round"] = sum(b for _, _, b in timing.sessions) / kept
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    import_program()

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            values = per_layer(run, args.seconds, trace_path)
        else:
            values = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in run.errors:
        print(f"blindbench: {error}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not run.errors
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
    }))
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
