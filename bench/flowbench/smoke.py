#!/usr/bin/env python3
"""Smoke test of the flowbench driver (the flowbench_smoke ctest target).

Usage:
    smoke.py FLOWBENCH_BINARY BENCHMARK.json

Runs every workload named in BENCHMARK.json with --smoke, untraced and
traced, and checks that: the last stdout line is the result object with
exactly the keys correct/attempted/failed/metrics; no check failed; every
end-to-end (untraced) or per-layer (traced) metric named in BENCHMARK.json
is reported with its unit; and the traced run's trace file parses as JSON.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys


def fail(msg):
    print("flowbench_smoke: FAIL " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        bench = json.load(f)
    work_dir = os.path.join(os.getcwd(), "flowbench_smoke")
    os.makedirs(work_dir, exist_ok=True)
    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = [binary, "--workload", name, "--seed", "0", "--seconds", "1",
                   "--trace", trace, "--smoke", "--work-dir", work_dir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            what = "%s trace=%s" % (name, trace)
            if proc.returncode != 0:
                fail("%s exited %d" % (what, proc.returncode))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                fail("%s: checks failed:\n%s" % (
                    what, "\n".join(l for l in lines if l.startswith("FAIL"))))
            got = result["metrics"]
            for m in expected:
                if m["name"] not in got:
                    fail("%s: metric %s missing" % (what, m["name"]))
                if got[m["name"]]["unit"] != m["unit"]:
                    fail("%s: metric %s has unit %s, want %s" % (
                        what, m["name"], got[m["name"]]["unit"], m["unit"]))
            if set(got) != {m["name"] for m in expected}:
                fail("%s: unexpected metrics %s" % (
                    what, sorted(set(got) - {m["name"] for m in expected})))
            if trace == "1":
                with open(os.path.join(work_dir, name + ".trace.json")) as f:
                    json.load(f)
            print("flowbench_smoke: %s ok (%d metrics)" % (what, len(got)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
