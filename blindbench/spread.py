#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 blindbench/spread.py --workload alpha-sweep --runs 10 --first-seed 100

Runs `run.py` once per seed, one run at a time, with the run length from
BENCHMARK.json, and prints per metric the median, the quartiles of
`statistics.quantiles(values, n=4)`, and the spread (Q3 - Q1) / median next
to the metric's bound. Every run's values go to stderr, one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"], **values})
        print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(runs)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        print(f"  {metric['name']:15s} median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {(q3 - q1) / median:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
