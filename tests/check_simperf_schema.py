#!/usr/bin/env python3
"""Validate BENCH_simperf.json against its schema.

Runs as a ctest test (label `perf`) ordered after perf_simperf_smoke,
which writes the file. Pure stdlib on purpose: CI validates the bench's
trajectory record without any package installs.
"""

import json
import sys

EXPECTED_SCHEMA = 10

# section -> keys that must be present (values are checked to be of the
# right shape, not of any particular magnitude: wall-clock numbers are
# machine-dependent by design).
REQUIRED = {
    "pregen": ["cold_seconds", "warm_seconds", "warm_speedup"],
    "compress": [
        "serial_seconds",
        "parallel_seconds",
        "workers",
        "speedup",
    ],
    "decode": [
        "checked_blocks_per_sec",
        "trusted_blocks_per_sec",
        "checked_ns_per_block",
        "trusted_ns_per_block",
        "speedup",
    ],
    "simulation": [
        "native_insns_per_sec",
        "native_replay_insns_per_sec",
        "codepack_opt_insns_per_sec",
        "codepack_opt_replay_insns_per_sec",
        "inorder_insns_per_sec",
        "inorder_replay_insns_per_sec",
    ],
    "matrix": [
        "runs",
        "insns_per_run",
        "serial_seconds",
        "parallel_seconds",
        "workers",
        "speedup",
        "live_seconds",
        "replay_seconds",
        "replay_speedup",
    ],
}


def fail(msg):
    print("check_simperf_schema: FAIL: " + msg)
    sys.exit(1)


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_simperf.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        fail(path + " not found (did perf_simperf_smoke run here?)")
    except json.JSONDecodeError as e:
        fail(path + " is not valid JSON: " + str(e))

    if doc.get("schema") != EXPECTED_SCHEMA:
        fail(
            "schema is %r, expected %d"
            % (doc.get("schema"), EXPECTED_SCHEMA)
        )

    for section, keys in REQUIRED.items():
        if section not in doc:
            fail("missing section %r" % section)
        for key in keys:
            if key not in doc[section]:
                fail("missing key %r in section %r" % (key, section))

    dec = doc["decode"]
    for key in ("checked_blocks_per_sec", "trusted_blocks_per_sec"):
        if not (isinstance(dec[key], (int, float)) and dec[key] > 0):
            fail("decode.%s should be a positive number, got %r"
                 % (key, dec[key]))

    # The "softerr" section is merged by bench_ext_soft_errors, which
    # runs separately from the smoke bench; validate it when present.
    if "softerr" in doc:
        se = doc["softerr"]
        for key in (
            "trials_per_kind",
            "upsets_per_profile",
            "profiles",
            "none_upsets",
            "none_silent_wrong",
            "none_silent_rate",
            "protected_silent_wrong",
            "secded_upsets",
            "secded_corrected",
            "secded_refetched",
            "secded_detected",
            "secded_cost_pct_mean",
            "check_cycles",
            "correct_cycles",
            "refetch_cycles_mean",
        ):
            if key not in se:
                fail("missing key %r in section 'softerr'" % key)
        if se["protected_silent_wrong"] != 0:
            fail("softerr.protected_silent_wrong is %r: protection "
                 "must kill every silent escape" % se["protected_silent_wrong"])
        if not 0.0 <= se["none_silent_rate"] <= 1.0:
            fail("softerr.none_silent_rate %r outside [0, 1]"
                 % se["none_silent_rate"])

    print("check_simperf_schema: OK (schema %d)" % EXPECTED_SCHEMA)


if __name__ == "__main__":
    main()
