#!/usr/bin/env python3
"""Compare two sets of flowbench run records (parent vs change).

Usage:
    compare.py PARENT CHANGE [--bench BENCHMARK.json] [--claim METRIC@WORKLOAD ...]

PARENT and CHANGE are directories of run records, written by
`run.py ... --trace 0 --out DIR/NAME.json`. Traced records and records
marked "gating": false (fewer CPUs than the workload keeps busy) are
listed but never gate.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the change's delta against the parent median
(positive = worse), the metric's bound and a verdict:

  better      the change is better by more than the bound
  same        the change is within the bound
  worse       the change is worse by more than the bound
  unresolved  a side's quartile spread exceeds the bound, and not every
              change run beats every parent run

It also reports failed_pct per side, quality metrics that differ between
runs of the same seed (these are exact, so any difference is a change in
output), and output-digest differences.

--claim METRIC@WORKLOAD checks a claimed gain over runs taken in
alternating pairs: the i-th gating parent record of a seed with the i-th
gating change record of the same seed, in file-name order. It needs at
least 10 pairs; the change must win at least 9 in 10 of them, ties
counting for neither, and the median gap must exceed the parent's
quartile spread. With the 5-run baseline sets a claim is refused:

    $ compare.py baseline/A baseline/B --claim wall_s@paper_atpg
    ...
    claim wall_s@paper_atpg: 5 pairs of gating runs of one seed, need at least 10: NOT met

Exit status: 1 when a gating metric is worse, more runs fail, a quality
metric got worse, or a claim is not met; 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# A claimed gain needs at least this many alternating pairs.
MIN_CLAIM_PAIRS = 10

# Quality metrics of the run records and the direction that is better.
QUALITY_BETTER = {
    "tat_cycles": "lower",
    "fault_coverage_pct": "higher",
    "chip_area_um2": "lower",
    "t_cp_ps": "lower",
    "atspeed_coverage_pct": "higher",
}


def load_runs(path):
    """Untraced run records under `path`, in file-name order."""
    runs = []
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace"):
            continue
        rec["_file"] = os.path.basename(f)
        runs.append(rec)
    return runs


def quartiles(values):
    """q1, median, q3 by linear interpolation between the runs (the
    inclusive rule, which flowbench's own quantiles use too)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_by(parent, change, better):
    """Relative change of `change` against `parent`; positive is worse."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def compare_metric(parent, change, metric):
    """(row text, verdict) for one metric over two lists of values."""
    better, bound = metric["better"], metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    p_spread = (p3 - p1) / pm if pm else 0.0
    c_spread = (c3 - c1) / cm if cm else 0.0
    delta = worse_by(pm, cm, better)
    all_beat = all(beats(c, p, better) for c in change for p in parent)
    if (p_spread > bound or c_spread > bound) and not all_beat:
        verdict = "unresolved"
    elif delta > bound:
        verdict = "worse"
    elif delta < -bound:
        verdict = "better"
    else:
        verdict = "same"
    row = "%-10.4g [%-9.4g %9.4g]  %-10.4g [%-9.4g %9.4g]  %+7.2f%%  %5.1f%%  %s" % (
        pm, p1, p3, cm, c1, c3, 100 * delta, 100 * bound, verdict)
    return row, verdict


def claim_pairs(parent_runs, change_runs, name):
    """(parent, change) values of `name` in alternating pairs: the i-th
    gating parent run of a seed with the i-th gating change run of it."""
    def by_seed(runs):
        out = {}
        for r in runs:
            if r["gating"]:
                out.setdefault(r["seed"], []).append(r["metrics"][name]["value"])
        return out

    p, c = by_seed(parent_runs), by_seed(change_runs)
    return [pair for seed in sorted(p) if seed in c for pair in zip(p[seed], c[seed])]


def check_claim(parent_runs, change_runs, name, workload, metric):
    """Win fraction over alternating pairs and the gap-vs-spread rule."""
    pairs = claim_pairs(parent_runs, change_runs, name)
    if len(pairs) < MIN_CLAIM_PAIRS:
        print("claim %s@%s: %d pairs of gating runs of one seed, need at least %d: NOT met"
              % (name, workload, len(pairs), MIN_CLAIM_PAIRS))
        return False
    better = metric["better"]
    pv = [p for p, _ in pairs]
    cv = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if beats(c, p, better))
    p1, pm, p3 = quartiles(pv)
    gap = abs(statistics.median(cv) - pm)
    improved = beats(statistics.median(cv), pm, better)
    ok = wins >= 0.9 * len(pairs) and improved and gap > (p3 - p1)
    print("claim %s@%s: change wins %d of %d pairs; median gap %.4g vs parent IQR %.4g: %s"
          % (name, workload, wins, len(pairs), gap, p3 - p1, "met" if ok else "NOT met"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    regression = False
    unresolved = 0

    print("%-14s %-12s %-33s %-33s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]",
        "delta", "bound", "verdict"))
    for wl in bench["workloads"]:
        name = wl["name"]
        p_runs, c_runs = parent.get(name, []), change.get(name, [])
        if not p_runs or not c_runs:
            print("%-14s (missing on one side: parent %d runs, change %d runs)"
                  % (name, len(p_runs), len(c_runs)))
            continue
        gating = all(r["gating"] for r in p_runs + c_runs)
        for metric in bench["end_to_end"]:
            m = metric["name"]
            pv = [r["metrics"][m]["value"] for r in p_runs]
            cv = [r["metrics"][m]["value"] for r in c_runs]
            row, verdict = compare_metric(pv, cv, metric)
            print("%-14s %-12s %s%s" % (name, m, row, "" if gating else " (not gating)"))
            if gating and verdict == "worse":
                regression = True
            if verdict == "unresolved":
                unresolved += 1

        p_fail = statistics.mean(r["failed_pct"] for r in p_runs)
        c_fail = statistics.mean(r["failed_pct"] for r in c_runs)
        print("%-14s failed_pct parent %.2f%%, change %.2f%%" % (name, p_fail, c_fail))
        if c_fail > p_fail:
            regression = True

        # Quality and digests are exact for a seed: compare them seed by seed.
        p_seed = {r["seed"]: r for r in p_runs}
        for c in c_runs:
            p = p_seed.get(c["seed"])
            if p is None:
                continue
            for q, better in QUALITY_BETTER.items():
                pq, cq = p["quality"][q]["value"], c["quality"][q]["value"]
                if pq != cq:
                    got_worse = not beats(cq, pq, better)
                    print("%-14s seed %s: quality %s %.10g -> %.10g (%s)" % (
                        name, c["seed"], q, pq, cq, "worse" if got_worse else "better"))
                    regression = regression or got_worse
            if p["digest"] != c["digest"]:
                print("%-14s seed %s: output digest %s -> %s" % (
                    name, c["seed"], p["digest"], c["digest"]))

    claims_met = True
    for claim in args.claim:
        metric_name, _, workload = claim.partition("@")
        metric = next((m for m in bench["end_to_end"] if m["name"] == metric_name), None)
        if metric is None or workload not in parent or workload not in change:
            print("claim %s: unknown metric or workload without runs" % claim)
            claims_met = False
            continue
        if not check_claim(parent[workload], change[workload], metric_name, workload, metric):
            claims_met = False

    print("%s; %d unresolved%s" % ("REGRESSION" if regression else "no regression", unresolved,
                                   "" if claims_met else "; claim not met"))
    return 0 if claims_met and not regression else 1


if __name__ == "__main__":
    sys.exit(main())
