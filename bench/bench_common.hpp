// Shared driver for the paper-reproduction benches: runs the Fig. 2 flow on
// the three §4.1 circuits across 0-5% test points and formats rows in the
// layout of the paper's tables. The (circuit × tp_percent) grid executes in
// parallel through SweepRunner; results are bit-identical at any job count.
//
// The environment is read by FlowConfig::from_env (flow/flow_config.hpp)
// once per process through bench_config(), except TPI_TRACE, which
// setup_logging() arms through trace_init_from_env (util/trace.hpp):
//   TPI_BENCH_SCALE   scale factor applied to every circuit profile
//                     (default 1.0 = paper-sized; use e.g. 0.2 for smoke runs)
//   TPI_BENCH_JOBS    worker threads for the sweep grid
//                     (default: hardware concurrency; 1 = serial)
//   TPI_ATPG_JOBS     fault-simulation worker threads inside each cell's
//                     ATPG stage (default 1: the grid already runs cells in
//                     parallel; raise it for single-circuit runs). Results
//                     are bit-identical at any value.
//   TPI_BENCH_JSON    path to write the aggregate per-stage timing report
//                     (google-benchmark-style JSON with a "metrics"
//                     snapshot; default: not written)
//   TPI_TRACE         path to write a Chrome trace-event JSON of the run
//                     (load in chrome://tracing or Perfetto; default: off)
//   TPI_LOG_LEVEL     debug|info|warn|error|silent (default warn)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "flow/sweep.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tpi::bench {

/// The process-wide bench configuration: compiled defaults + environment,
/// read exactly once. Benches copy it and override per-job fields.
inline const FlowConfig& bench_config() {
  static const FlowConfig kConfig = FlowConfig::from_env();
  return kConfig;
}

inline double bench_scale() { return bench_config().scale; }
inline int bench_jobs() { return bench_config().effective_bench_jobs(); }

inline void setup_logging() { bench_config().apply_process_settings(); }

/// The paper's sweep: 0%, 1%, ..., 5% test points (§4.1).
inline const std::vector<double>& tp_percentages() {
  static const std::vector<double> kPercent{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  return kPercent;
}

/// Circuit profiles at the configured scale.
inline std::vector<CircuitProfile> bench_profiles() {
  std::vector<CircuitProfile> out;
  for (const CircuitProfile& p : paper_profiles()) {
    FlowConfig cfg = bench_config();
    cfg.profile = p.name;
    CircuitProfile profile;
    cfg.resolve_profile(profile);  // paper names always resolve
    out.push_back(std::move(profile));
  }
  return out;
}

/// Write a sweep report's JSON to TPI_BENCH_JSON when it is set.
inline void write_bench_json(const std::string& json) {
  const std::string& path = bench_config().bench_json;
  if (!path.empty() && write_text_file(path, json, "TPI_BENCH_JSON")) {
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  }
}

/// Execute jobs through a SweepRunner sized by the bench config and write
/// the aggregate JSON report when TPI_BENCH_JSON is set.
inline SweepReport run_jobs(std::vector<SweepJob> jobs) {
  const SweepReport report =
      SweepRunner(bench_config()).run(*make_phl130_library(), std::move(jobs));
  write_bench_json(report.to_json());
  return report;
}

struct SweepResult {
  CircuitProfile profile;
  std::vector<FlowResult> runs;  ///< aligned with the tp percentages swept
};

/// The full paper grid — bench_profiles() × tp_percentages() — run in
/// parallel, repacked per circuit in paper order. Every layout is generated
/// from scratch for every grid cell, exactly as in §4.1. `stages` selects
/// the per-cell flow (e.g. StageMask::all().without(Stage::kReorderAtpg)
/// for the area tables that never look at patterns).
inline std::vector<SweepResult> run_grid(StageMask stages, SweepReport* report_out = nullptr) {
  FlowConfig base = bench_config();
  base.stages = stages;
  const std::vector<CircuitProfile> profiles = bench_profiles();
  SweepReport report = run_jobs(SweepRunner::grid(profiles, tp_percentages(), base));

  std::vector<SweepResult> out;
  std::size_t cell = 0;
  for (const CircuitProfile& profile : profiles) {
    SweepResult sweep;
    sweep.profile = profile;
    for (std::size_t i = 0; i < tp_percentages().size(); ++i) {
      sweep.runs.push_back(report.cells[cell++].result);
    }
    out.push_back(std::move(sweep));
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return out;
}

/// Per-stage wall-clock totals + parallel speedup, as a printable table.
inline std::string stage_totals_table(const SweepReport& report) {
  TextTable table({"stage", "total wall(s)", "share(%)"});
  const double total = report.cpu_ms > 0.0 ? report.cpu_ms : 1.0;
  for (const Stage s : kAllStages) {
    const double ms = report.stage_total_ms[static_cast<std::size_t>(s)];
    table.add_row({stage_name(s), fmt_fixed(ms / 1000.0, 2), fmt_fixed(100.0 * ms / total, 1)});
  }
  table.add_separator();
  table.add_row({"all stages", fmt_fixed(report.cpu_ms / 1000.0, 2), "100.0"});
  std::string out = table.to_string();
  char line[160];
  std::snprintf(line, sizeof line,
                "%zu runs, %d jobs: wall %.2fs, cpu %.2fs, parallel speedup %.2fx\n",
                report.cells.size(), report.jobs, report.wall_ms / 1000.0,
                report.cpu_ms / 1000.0, report.speedup());
  return out + line;
}

/// "x.xx" percentage change relative to the 0% row ("-" for the base row).
inline std::string delta_pct(double value, double base, bool first_row) {
  if (first_row || base == 0.0) return "-";
  return fmt_fixed(100.0 * (value - base) / base, 2);
}

/// Linearity check used for the §4.3/§4.4 "increases nearly linearly"
/// claims: least-squares R^2 of metric vs #test points.
inline LinearFit linearity(const SweepResult& sweep, double (*metric)(const FlowResult&)) {
  std::vector<double> x, y;
  for (const FlowResult& r : sweep.runs) {
    x.push_back(static_cast<double>(r.num_test_points));
    y.push_back(metric(r));
  }
  return fit_linear(x, y);
}

}  // namespace tpi::bench
