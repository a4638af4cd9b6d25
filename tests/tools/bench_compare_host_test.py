#!/usr/bin/env python3
"""Checks tools/bench_compare.py's host record on two fixture files.

Usage: bench_compare_host_test.py BENCH_COMPARE_PY FIXTURE_DIR

bench_host_old.json comes from a 4-CPU avx512 host, bench_host_new.json
from a 1-CPU scalar host. The comparison must print both host records,
warn that they differ, and report BM_AtpgStage/4 (3x slower on one CPU)
without gating it, so the run exits 0. Comparing a file with itself must
not warn.
"""

import os
import subprocess
import sys


def run(script, old, new):
    return subprocess.run([sys.executable, script, old, new],
                          capture_output=True, text=True)


def main():
    script, fixtures = sys.argv[1], sys.argv[2]
    old = os.path.join(fixtures, "bench_host_old.json")
    new = os.path.join(fixtures, "bench_host_new.json")
    failures = []

    mixed = run(script, old, new)
    if mixed.returncode != 0:
        failures.append(f"mixed hosts: exit {mixed.returncode}, want 0")
    for text in ("num_cpus=4 simd_backend=avx512", "num_cpus=1 simd_backend=scalar",
                 "(not gated: 4 jobs > 1 CPUs)"):
        if text not in mixed.stdout:
            failures.append(f"mixed hosts: stdout lacks {text!r}")
    if "different hosts" not in mixed.stderr:
        failures.append("mixed hosts: no host warning on stderr")
    if "BM_AtpgStage/1  " not in mixed.stdout or "not gated: 1 jobs" in mixed.stdout:
        failures.append("mixed hosts: BM_AtpgStage/1 must be reported and gated")

    same = run(script, old, old)
    if same.returncode != 0 or "different hosts" in same.stderr or "not gated" in same.stdout:
        failures.append("same host: must exit 0 with no warning and every row gated")

    for f in failures:
        print("FAIL:", f)
    if failures:
        print(mixed.stdout, mixed.stderr, sep="\n")
        return 1
    print("bench_compare host record: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
