#!/usr/bin/env python3
"""Build the flowbench driver from source if needed, then run one workload.

Usage (from the root of a checkout):
    python3 bench/flowbench/run.py --workload NAME --seed S --seconds T --trace 0|1
                             [--out RUN.json] [--smoke]

The build goes to $CARGO_TARGET_DIR/flowbench (default .bench_build/flowbench,
relative to the checkout root); build output goes to stderr, so the last
line of stdout is the driver's JSON result. Per-job trace files land in the
build directory's work/ folder. Exits nonzero without a result when the
repository sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "flowbench")


def build(out_dir):
    """Configure once, then (re)build the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("flowbench: no repository sources under %s" % ROOT, file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out_dir, "--target", "flowbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "flowbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", help="write the full run record here")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
