#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_tables --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/cpsbench (with the simulator libraries from src/) into
.bench_build/perfbench, then runs it with every CPS_* variable removed
from its environment. The last line of stdout is the benchmark's JSON
result; build output goes to stderr. Exits nonzero without a result when
the simulator sources or the toolchain are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_tables", "embedded_miss", "cold_build")
MAX_JOBS = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment without any simulator knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CPS_")}


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                "--target", "cpsbench"])
    return BUILD_DIR / "cpsbench"


def git_hash():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() or "none"


def source_digest():
    """SHA-256 prefix over the sources the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".cc", ".hh", ".txt")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-hash", git_hash(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
