// Parallel sweep runner for the paper's experiment grids. Every table in
// the paper is a (circuit × tp_percent) grid of independent full-layout
// runs; SweepRunner executes such a grid on a fixed-size thread pool with
// deterministic per-task seeding (each cell's seeds derive only from its
// FlowOptions::seed and CircuitProfile::seed, never from scheduling), so
// the results are bit-identical at any job count — including jobs = 1,
// which the equivalence tests use as the serial reference.
//
// The runner aggregates per-stage wall-clock totals across the grid and
// can serialise the whole report as google-benchmark-style JSON (the
// format emitted by bench_kernel_microbench --benchmark_format=json), so
// the same tooling can consume kernel and flow-level timings.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "flow/run_recorder.hpp"

namespace tpi {

struct FlowConfig;  // flow_config.hpp

/// One grid cell: a full flow run of `profile` with `options`
/// (tp_percent and seeds live inside `options`), restricted to `stages`.
struct SweepJob {
  std::string label;  ///< report key, e.g. "s38417/tp=2"
  CircuitProfile profile;
  FlowOptions options;
  StageMask stages = StageMask::all();
  double scale = 1.0;  ///< scale `profile` was generated at (ledger config)
};

struct SweepOptions {
  /// Worker threads; <= 0 selects ThreadPool::default_concurrency().
  int jobs = 0;
  /// Announce each cell on stderr as a worker picks it up.
  bool progress = true;
  /// Per-cell flight recorder directory (TPI_TRACE_DIR / FlowConfig
  /// trace_dir): each cell's spans go to its own TraceSink and are written
  /// as <trace_dir>/<sanitize_trace_label(label)>.trace.json, so
  /// concurrent cells never interleave in one trace. Empty = off.
  std::string trace_dir;
  /// Run-ledger JSONL path (TPI_LEDGER / FlowConfig ledger): every cell's
  /// deterministic flow result is appended in submission order. Empty = off.
  std::string ledger;

  /// jobs = config.effective_bench_jobs(), trace_dir and ledger from
  /// `config`, progress on.
  static SweepOptions from_config(const FlowConfig& config);
  /// Worker threads a runner with these options uses (>= 1).
  int effective_jobs() const;
};

struct SweepCellResult {
  SweepJob job;
  FlowResult result;
  double wall_ms = 0.0;  ///< whole-flow wall clock for this cell
};

struct SweepReport {
  std::vector<SweepCellResult> cells;  ///< in job submission order
  int jobs = 1;                        ///< worker threads actually used
  double wall_ms = 0.0;                ///< sweep wall clock
  double cpu_ms = 0.0;                 ///< sum of per-cell wall clocks
  std::array<double, kNumStages> stage_total_ms{};  ///< per-stage totals
  /// Per-cell FlowResult metrics merged in submission order. Deterministic
  /// metrics are bit-identical at any job count; to_json() serialises only
  /// those (MetricsSnapshot::kNoRuntime).
  MetricsSnapshot metrics;

  /// Parallel speedup actually realised: cpu_ms / wall_ms.
  double speedup() const { return wall_ms > 0.0 ? cpu_ms / wall_ms : 1.0; }

  /// google-benchmark-style JSON: {"context": ..., "benchmarks": [...]}
  /// with one entry per cell (real_time = cell wall clock, per-stage times
  /// under "stages") plus one "stage_totals/<stage>" aggregate per stage.
  std::string to_json() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(std::move(opts)) {}
  /// Runner sized from a unified FlowConfig (SweepOptions::from_config).
  explicit SweepRunner(const FlowConfig& config)
      : SweepRunner(SweepOptions::from_config(config)) {}

  /// Execute all jobs on the pool; blocks until the grid is done. An
  /// exception escaping a cell's flow run is rethrown here after the
  /// remaining cells finish.
  SweepReport run(const CellLibrary& lib, std::vector<SweepJob> jobs) const;

  /// The paper's grid: every circuit at every tp_percent, as jobs in
  /// circuit-major order with labels "<circuit>/tp=<pct>".
  static std::vector<SweepJob> grid(const std::vector<CircuitProfile>& circuits,
                                    const std::vector<double>& tp_percents,
                                    const FlowOptions& base_options,
                                    StageMask stages = StageMask::all());

  /// Same grid from a unified FlowConfig: cells inherit config.options
  /// (atpg jobs, seeds, verify switch) and run config.stages.
  static std::vector<SweepJob> grid(const std::vector<CircuitProfile>& circuits,
                                    const std::vector<double>& tp_percents,
                                    const FlowConfig& config);

  /// Number of worker threads run() will use.
  int effective_jobs() const { return opts_.effective_jobs(); }

 private:
  SweepOptions opts_;
};

}  // namespace tpi
