// Sweep runner for SOC-scale grids: cores x TAM width x tp_percent, each
// cell one full chip (SocRunner). The parallelism is inverted relative to
// SweepRunner — cells run sequentially on the caller thread while each
// cell's per-core flows fan out onto one shared ThreadPool (the pool has
// no work stealing, so nesting cell tasks over core tasks on one pool
// could deadlock). A shared DesignCache spans the grid: every cell
// re-instantiates the same scaled paper profiles, so later cells hit warm
// entries.
//
// Reporting mirrors SweepRunner: google-benchmark-style JSON with one
// entry per chip, per-cell flight-recorder traces under
// <trace_dir>/<sanitize_trace_label(label)>.trace.json, and one ledger
// line per chip appended in grid order.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "flow/sweep.hpp"
#include "soc/soc.hpp"

namespace tpi {

struct SocSweepJob {
  std::string label;  ///< report key, e.g. "soc=8/tam=32/tp=1"
  FlowConfig config;  ///< the chip; also the config its ledger line records
};

struct SocSweepCellResult {
  SocSweepJob job;
  SocResult result;
  double wall_ms = 0.0;
};

struct SocSweepReport {
  std::vector<SocSweepCellResult> cells;  ///< in job submission order
  int jobs = 1;                           ///< core-flow worker threads
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// Per-cell SocResult metrics merged in grid order (deterministic subset
  /// serialised, as in SweepReport).
  MetricsSnapshot metrics;

  /// google-benchmark-style JSON: one "benchmarks" entry per chip carrying
  /// cores / tam_width / tp_percent / chip_tat_cycles / serial_tat_cycles /
  /// tam_utilization_pct. Everything except the context block and
  /// real_time is bit-identical at any job count and SIMD backend.
  std::string to_json() const;
};

class SocSweepRunner {
 public:
  explicit SocSweepRunner(SweepOptions opts = {}) : opts_(std::move(opts)) {}
  /// Runner sized from a unified FlowConfig (SweepOptions::from_config).
  explicit SocSweepRunner(const FlowConfig& config)
      : SocSweepRunner(SweepOptions::from_config(config)) {}

  /// Run all cells (sequentially; per-core flows in parallel). A cell's
  /// exception propagates after the shared pool drains.
  SocSweepReport run(const CellLibrary& lib, std::vector<SocSweepJob> jobs) const;

  /// The SOC grid: every (cores, tam_width, tp_percent) triple in
  /// cores-major order with labels "soc=<n>/tam=<w>/tp=<pct>". A cell's
  /// config carries only what describes the chip: config.options /
  /// config.stages / config.scale / config.soc.schedule plus its own axes.
  static std::vector<SocSweepJob> grid(const std::vector<int>& cores,
                                       const std::vector<int>& tam_widths,
                                       const std::vector<double>& tp_percents,
                                       const FlowConfig& config);

 private:
  SweepOptions opts_;
};

}  // namespace tpi
