#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread against its bounds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --seeds 10 [--workloads a,b] [--first-seed 1]

Runs perfbench/run.py once per seed and workload with --trace 0 and
prints, per end-to-end metric, the median, the quartiles and the spread
(third minus first quartile, as a share of the median), next to a third
of the metric's bound from BENCHMARK.json. Exits nonzero when a run fails
or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n"
                 f"{out.stderr[-2000:]}")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics = run_once(workload, seed, spec["run_seconds"])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={metrics[n]['value']:.4g}" for n in bounds),
                  flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload:14s} {name:22s} median={med:.5g} "
                  f"q1={q1:.5g} q3={q3:.5g} spread={spread:.4f} "
                  f"third_of_bound={bounds[name] / 3:.4f} {flag}",
                  flush=True)


if __name__ == "__main__":
    main()
