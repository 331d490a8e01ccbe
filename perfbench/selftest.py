#!/usr/bin/env python3
"""The benchmark's own test.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Checks, and exits nonzero when any fails:
  1. paper_tables at seed 0 reproduces bench_table5_ipc's IPC table
     exactly (both built from this checkout);
  2. on every workload, an untraced and a traced run of one seed are
     correct and report the same simulated-count digest;
  3. on every workload, the traced run's largest self time lies in the
     layer the workload was chosen for.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's build step)

SEED = 7
# Layers the traced run must find on top, per workload.
EXPECTED_TOP = {
    "paper_tables": {"pipeline.ooo_run"},
    "embedded_miss": {"pipeline.inorder_run"},
    "cold_build": {"progen.source", "asmkit.assemble", "core.trace_encode",
                   "core.trace_decode", "artifact.load", "artifact.store"},
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def cpsbench(binary, *args):
    out = subprocess.run([str(binary), *args], cwd=ROOT, env=run.clean_env(),
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    return out


def table5_rows(text):
    """Bench name -> the nine IPC strings of Table 5's rows."""
    rows, in_table = {}, False
    for line in text.splitlines():
        if line.startswith("Table 5"):
            in_table = True
        elif in_table:
            cols = line.split()
            if len(cols) == 10 and cols[0].isidentifier():
                rows[cols[0]] = cols[1:]
    return rows


def test_table5(binary):
    run.run_logged(["cmake", "--build", str(run.BUILD_DIR), "--target",
                    "bench_table5_ipc"])
    cache = ROOT / ".bench_cache" / "selftest-table5"
    shutil.rmtree(cache, ignore_errors=True)
    env = run.clean_env()
    env["CPS_CACHE_DIR"] = str(cache)
    ref = subprocess.run([str(run.BUILD_DIR / "bench_table5_ipc")], cwd=ROOT,
                         env=env, capture_output=True, text=True)
    shutil.rmtree(cache, ignore_errors=True)
    mine = cpsbench(binary, "--workload", "paper_tables", "--seed", "0",
                    "--ipc-table")
    want = table5_rows(ref.stdout)
    got = {c[0]: c[1:] for c in (l.split() for l in mine.stdout.splitlines())
           if len(c) == 10}
    check(ref.returncode == 0 and mine.returncode == 0 and len(want) == 6
          and got == want,
          "paper_tables at seed 0 reproduces bench_table5_ipc's IPC values")


def parse(out):
    manifest = result = None
    for line in out.stdout.splitlines():
        if line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
    lines = out.stdout.strip().splitlines()
    if lines:
        result = json.loads(lines[-1])
    return manifest, result


def test_workload(binary, workload):
    common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1"]
    m0, r0 = parse(cpsbench(binary, *common, "--trace", "0"))
    m1, r1 = parse(cpsbench(binary, *common, "--trace", "1"))
    check(bool(r0 and r0["correct"] and r0["failed"] == 0),
          f"{workload}: untraced run correct")
    check(bool(r1 and r1["correct"] and r1["failed"] == 0),
          f"{workload}: traced run correct")
    check(bool(m0 and m1 and m0["sim_digest"] == m1["sim_digest"]),
          f"{workload}: traced and untraced digests agree")
    spans = ROOT / ".bench_out" / f"spans-{workload}-s{SEED}.json"
    if not spans.is_file():
        check(False, f"{workload}: spans written to {spans.name}")
        return
    self_ms = json.loads(spans.read_text())["self_ms"]
    expected = EXPECTED_TOP[workload]
    mine = sum(v for k, v in self_ms.items() if k in expected)
    others = max(v for k, v in self_ms.items() if k not in expected)
    check(mine > others,
          f"{workload}: largest self time in {sorted(expected)} "
          f"({mine:.0f} ms vs {others:.0f} ms elsewhere)")


def main():
    binary = run.build()
    test_table5(binary)
    for workload in run.WORKLOADS:
        test_workload(binary, workload)
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
