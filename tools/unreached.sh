#!/usr/bin/env bash
# List the src/ functions that no production program reaches, so dead code is
# found by measurement rather than by reading.
#
#   tools/unreached.sh [-j N]
#
# Builds two coverage trees at the repository root (both gitignored):
# build-cov/ (the root project's programs, Debug, --coverage -O1) and
# build-cov-flowbench/ (bench/flowbench, same flags, used as it is). Then it
# deletes old counters and runs every production program once:
#   * flowbench on all four workloads, 3 s each, untraced and traced;
#   * every bench/ table, figure, ablation and smoke program at
#     TPI_BENCH_SCALE=0.05;
#   * bench_server_loadtest against the forked tpi_flow_server daemon;
#   * bench_kernel_microbench (short minimum time per benchmark);
#   * the four examples.
# The ctest suite is not run: a function only a test calls counts as
# unreached. Finally `gcov -j` reads the notes of every library and program
# object of both trees (an object no program executed has no .gcda and reads
# as all zero), the records of functions defined under src/ are merged by
# source line (template instances and the scalar/AVX-512 copies of the
# SIMD kernels share one line), and each function with zero calls is
# printed as
#   src/<file>:<line><TAB><function>
# on stdout, sorted; the last stderr line counts them and their lines.
# Progress goes to stderr. -j sets the build parallelism (default: nproc).
# A cold run takes about 7 minutes at -j 3 on 4 vCPUs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc)
if [[ ${1:-} == -j ]]; then
  jobs=$2
  shift 2
fi
if [[ $# -gt 0 ]]; then
  echo "usage: tools/unreached.sh [-j N]" >&2
  exit 2
fi

cov=$root/build-cov
fb=$root/build-cov-flowbench
flags=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS=--coverage -O1"
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)
benches=(table1_testdata table2_area table3_timing fig1_tsff_modes fig3_layout_snapshots
         headline_summary ablation_tpi_method ablation_scan_reorder
         ablation_timing_driven_tpi lbist_coverage soc)
examples=(quickstart dft_insertion layout_gallery timing_report)

echo "== build $cov" >&2
cmake -B "$cov" -S "$root" "${flags[@]}" >&2
cmake --build "$cov" -j "$jobs" --target "${benches[@]/#/bench_}" bench_trace_smoke \
  bench_server_loadtest bench_kernel_microbench tpi_flow_server "${examples[@]}" >&2
echo "== build $fb" >&2
cmake -B "$fb" -S "$root/bench/flowbench" "${flags[@]}" >&2
cmake --build "$fb" --target flowbench -j "$jobs" >&2

find "$cov" "$fb" -name '*.gcda' -delete
work=$cov/unreached-work
rm -rf "$work"
mkdir -p "$work"
cd "$work"

run() {
  echo "== $*" >&2
  "$@" >/dev/null
}

for workload in paper_layout paper_atpg atspeed_lbist server_mixed; do
  for trace in 0 1; do
    run "$fb/flowbench" --workload "$workload" --seed 0 --seconds 3 --trace "$trace" \
      --work-dir "$work"
  done
done

export TPI_BENCH_SCALE=0.05
for bench in "${benches[@]}"; do
  run "$cov/bench/bench_$bench"
done
run env TPI_TRACE="$work/trace_smoke.json" "$cov/bench/bench_trace_smoke"
run "$cov/bench/bench_server_loadtest" "$cov/src/server/tpi_flow_server" 4 5 --poll-stats
run "$cov/bench/bench_kernel_microbench" --benchmark_min_time=0.01
unset TPI_BENCH_SCALE

run "$cov/examples/quickstart"
run "$cov/examples/dft_insertion"
run "$cov/examples/layout_gallery" s38417 0.1 2.0
run "$cov/examples/timing_report" s38417 0.1 2.0

echo "== gcov" >&2
mkdir -p "$work/gcov"
find "$cov" "$fb" -name '*.gcno' -not -path '*/tests/*' -print0 |
  xargs -0 -P "$jobs" -I{} sh -c 'gcov -j -t "$1" 2>/dev/null > "$2/$(echo "$1" | md5sum | cut -c1-16).json"' \
    _ {} "$work/gcov"

python3 - "$root" "$work/gcov" <<'EOF'
import glob
import json
import os
import sys

root, gcov_dir = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
calls = {}  # (file, line) -> [call count, demangled name, lines]
for path in glob.glob(os.path.join(gcov_dir, "*.json")):
    with open(path) as f:
        for doc in f:  # one JSON document per line
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", root)
            for rec in data["files"]:
                name = os.path.normpath(os.path.join(cwd, rec["file"]))
                # A source deleted since the tree was built leaves its
                # notes behind; it has no functions to report.
                if not name.startswith(src) or not os.path.exists(name):
                    continue
                rel = os.path.relpath(name, root)
                for fn in rec["functions"]:
                    key = (rel, fn["start_line"])
                    lines = fn["end_line"] - fn["start_line"] + 1
                    entry = calls.setdefault(key, [0, fn["demangled_name"], lines])
                    entry[0] += fn["execution_count"]
unreached = [(key, entry) for key, entry in sorted(calls.items()) if entry[0] == 0]
for (rel, line), (_, name, _) in unreached:
    print("%s:%d\t%s" % (rel, line, name))
print("unreached: %d functions, %d lines" % (len(unreached), sum(e[2] for _, e in unreached)),
      file=sys.stderr)
EOF
