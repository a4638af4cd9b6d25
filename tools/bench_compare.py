#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and print a delta table.

Usage:
    tools/bench_compare.py OLD.json NEW.json [--threshold PCT]
    tools/bench_compare.py --ledger RUNS.jsonl [--last N] [--threshold PCT]

Bench mode: benchmarks are matched by name (a "/real_time" suffix is
ignored); the table reports old/new real time and the speedup (old / new,
so > 1.0 is an improvement). A file run with --benchmark_repetitions holds
several runs per benchmark: each side is then its median, and the gate of
that benchmark widens from --threshold to 3 x the old file's relative
median absolute deviation (MAD / median) when that is larger, so a noisy
benchmark does not fail on its own noise. Benchmarks present in only one
file are listed but not compared. Each file's host record (num_cpus and
the simd_backend custom context) is printed, with a warning when the two
differ. A pool variant "NAME/N" (N workers) is reported but not gated
when N exceeds either file's num_cpus: its time then measures the host's
core count, not the code. Exits nonzero when any gated benchmark
regressed by more than its gate (default 10 percent), so the script can
gate CI or a pre-commit check:

    tools/bench_compare.py BENCH_atpg_pre_simd.json BENCH_atpg.json

Ledger mode (--ledger): reads the TPI_LEDGER run ledger (one JSON object
per line, written by the flow server / SweepRunner) and, per run label,
diffs the newest entry's deterministic flow metrics against the mean of
the preceding --last entries with the same label and config fingerprint.
Any metric drifting more than --threshold percent is printed as an
offending row and the script exits 1 — same contract as the bench mode.
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit):
    return value * _UNIT_NS.get(unit, 1.0)


def load_benchmarks(path):
    """(context, name -> list of real times in ns, one per repetition);
    aggregates (mean/median/...) are skipped."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"].removesuffix("/real_time")
        out.setdefault(name, []).append(
            to_ns(float(b["real_time"]), b.get("time_unit", "ns")))
    return data.get("context", {}), out


def pool_jobs(name):
    """Worker count of a pool variant "NAME/N", else None."""
    _, _, last = name.rpartition("/")
    return int(last) if last.isdigit() else None


def host_record(path, context):
    """Print one file's host record; returns (num_cpus, simd_backend)."""
    host = (context.get("num_cpus"), context.get("simd_backend", "unknown"))
    print(f"{path}: num_cpus={host[0]} simd_backend={host[1]}")
    return host


def relative_mad(values):
    """Median absolute deviation as a share of the median (0 for one run)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0.0:
        return 0.0
    return statistics.median(abs(v - med) for v in values) / med


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def load_ledger(path):
    """Parse the JSONL ledger, skipping malformed lines (torn writes)."""
    entries = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "flow" in obj:
                entries.append(obj)
    return entries


def flatten_metrics(obj, prefix=""):
    """Numeric leaves of a flow-result object as {dotted.name: value}."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = f"{prefix}.{key}" if prefix else key
            out.update(flatten_metrics(value, name))
    elif isinstance(obj, bool):
        pass  # bool is an int subclass; states are not drift-comparable
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def compare_ledger(path, threshold, last):
    # A missing or empty ledger is a normal state (no runs recorded yet),
    # not an error: report it and succeed so CI hooks can run
    # unconditionally.
    try:
        entries = load_ledger(path)
    except OSError as e:
        print(f"ledger: cannot read {path}: {e.strerror or e}; "
              "nothing to compare", file=sys.stderr)
        return 0
    if not entries:
        print(f"ledger: {path} has no entries; nothing to compare",
              file=sys.stderr)
        return 0
    by_label = {}
    for e in entries:
        by_label.setdefault(e.get("label", ""), []).append(e)

    compared = 0
    offenders = []  # (label, metric, baseline, newest, drift_pct)
    for label in sorted(by_label):
        runs = by_label[label]
        newest = runs[-1]
        # Baseline: the preceding runs with the same config fingerprint —
        # a config change legitimately moves every metric.
        base_runs = [e for e in runs[:-1]
                     if e.get("config_fp") == newest.get("config_fp")]
        base_runs = base_runs[-last:]
        if not base_runs:
            continue
        compared += 1
        new_metrics = flatten_metrics(newest.get("flow", {}))
        base_sums, base_counts = {}, {}
        for e in base_runs:
            for name, value in flatten_metrics(e.get("flow", {})).items():
                base_sums[name] = base_sums.get(name, 0.0) + value
                base_counts[name] = base_counts.get(name, 0) + 1
        for name in sorted(new_metrics):
            if name not in base_sums:
                continue
            base = base_sums[name] / base_counts[name]
            new = new_metrics[name]
            if base == 0.0:
                drift = 0.0 if new == 0.0 else float("inf")
            else:
                drift = abs(new - base) / abs(base) * 100.0
            if drift > threshold:
                offenders.append((label, name, base, new, drift))

    if compared == 0:
        print("ledger: no label has both a newest entry and same-fingerprint "
              "history to compare against", file=sys.stderr)
        return 2
    if offenders:
        width = max(len(f"{label}:{name}") for label, name, *_ in offenders)
        print(f"{'metric':<{width}}  {'baseline':>12}  {'newest':>12}  {'drift':>8}")
        print(f"{'-' * width}  {'-' * 12}  {'-' * 12}  {'-' * 8}")
        for label, name, base, new, drift in offenders:
            print(f"{label + ':' + name:<{width}}  {base:>12.4g}  {new:>12.4g}"
                  f"  {drift:>7.1f}%")
        print(f"\n{len(offenders)} metric(s) drifted more than "
              f"{threshold:.0f}% across {compared} compared label(s)",
              file=sys.stderr)
        return 1
    print(f"ledger: {compared} label(s) compared, no metric drifted more than "
          f"{threshold:.0f}%")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?", help="baseline google-benchmark JSON")
    ap.add_argument("new", nargs="?", help="candidate google-benchmark JSON")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression/drift threshold in percent (default 10)")
    ap.add_argument("--ledger", metavar="PATH",
                    help="diff the newest run per label in a TPI_LEDGER JSONL "
                         "file against its history instead of comparing two "
                         "benchmark files")
    ap.add_argument("--last", type=int, default=1,
                    help="ledger mode: baseline is the mean of the last N "
                         "prior entries per label (default 1)")
    args = ap.parse_args()

    if args.ledger:
        if args.old or args.new:
            ap.error("--ledger takes no positional benchmark files")
        return compare_ledger(args.ledger, args.threshold, max(1, args.last))
    if not args.old or not args.new:
        ap.error("bench mode needs OLD.json and NEW.json (or use --ledger)")

    old_ctx, old = load_benchmarks(args.old)
    new_ctx, new = load_benchmarks(args.new)
    old_host = host_record(args.old, old_ctx)
    new_host = host_record(args.new, new_ctx)
    if old_host != new_host:
        print("warning: the files come from different hosts (num_cpus or "
              "simd_backend differ); deltas mix host and code", file=sys.stderr)
    cpus = [c for c in (old_host[0], new_host[0]) if isinstance(c, int)]
    max_jobs = min(cpus) if cpus else None
    names = [n for n in old if n in new]
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    if not names:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 2

    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  {'speedup':>8}"
          f"  {'gate':>6}")
    print(f"{'-' * width}  {'-' * 10}  {'-' * 10}  {'-' * 8}  {'-' * 6}")
    regressions = []
    for name in names:
        old_ns = statistics.median(old[name])
        new_ns = statistics.median(new[name])
        gate = max(args.threshold, 300.0 * relative_mad(old[name]))
        speedup = old_ns / new_ns if new_ns > 0 else float("inf")
        flag = ""
        jobs = pool_jobs(name)
        if max_jobs is not None and jobs is not None and jobs > max_jobs:
            flag = f"  (not gated: {jobs} jobs > {max_jobs} CPUs)"
        elif new_ns > old_ns * (1.0 + gate / 100.0):
            regressions.append((name, speedup, gate))
            flag = "  REGRESSED"
        print(f"{name:<{width}}  {fmt_time(old_ns):>10}  {fmt_time(new_ns):>10}"
              f"  {speedup:>7.2f}x  {gate:>5.0f}%{flag}")

    for name in only_old:
        print(f"{name:<{width}}  {fmt_time(statistics.median(old[name])):>10}"
              f"  {'(gone)':>10}")
    for name in only_new:
        print(f"{name:<{width}}  {'(new)':>10}"
              f"  {fmt_time(statistics.median(new[name])):>10}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"their gate:", file=sys.stderr)
        for name, speedup, gate in regressions:
            print(f"  {name}: {1.0 / speedup:.2f}x slower (gate {gate:.0f}%)",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
