// End-to-end tool flow of Fig. 2 (§3.2), exposed as a staged engine:
//
//   1. tpi_scan         TPI & scan insertion          (tpi, scan)
//   2. floorplan_place  floorplanning & placement     (layout)
//   3. reorder_atpg     layout-driven scan chain reordering + ATPG (scan, atpg)
//   4. eco              ECO: clock trees, fillers, routing         (layout)
//   5. extract          layout extraction             (extraction)
//   6. sta              static timing analysis        (sta)
//
// Layouts for different test-point counts are generated from scratch, as
// in §4.1, with identical floorplan policy (square core, same target row
// utilisation) so the comparison across TP percentages is fair.
//
// FlowEngine runs the stages one by one and times each. Callers pick the
// stages they need with a StageMask (partial flows, ablations), or step
// with run_stage to act between stages.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "circuits/profiles.hpp"
#include "extraction/extraction.hpp"
#include "flow/stage.hpp"
#include "layout/clock_tree.hpp"
#include "layout/routing.hpp"
#include "netlist/design_db.hpp"
#include "scan/scan.hpp"
#include "sta/sta.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"
#include "verify/equiv.hpp"

namespace tpi {

struct FlowOptions {
  /// Test points as a percentage of the flip-flop count (§4.1).
  double tp_percent = 0.0;
  TpiMethod tpi_method = TpiMethod::kHybrid;

  bool layout_driven_reorder = true;  ///< flow step 3 (ablation toggle)
  /// Timing-driven TPI (§5 / Cheng & Lin): run a pre-TPI layout + STA and
  /// exclude nets with slack below `timing_exclude_slack_ps`.
  bool timing_driven_tpi = false;
  double timing_exclude_slack_ps = 400.0;

  AtpgOptions atpg;
  std::uint64_t seed = 0xF10F;

  /// Opt-in verify stage: snapshot the pre-transform netlist, and after the
  /// flow check mission-mode equivalence (miter + EquivChecker) and replay
  /// the ATPG pattern set against every claimed fault detection. The stage
  /// runs when the mask also carries Stage::kVerify.
  bool verify = false;

  /// Opt-in at-speed LBIST experiment, run at the end of the sta stage: a
  /// transition-fault BIST session clocked at the post-TPI netlist's F_max
  /// (capture period = StaResult::worst.t_cp_ps) plus a slow-speed control
  /// session at kAtSpeedSlowFactor x that period; the coverage gap is the
  /// at-speed value of the layout. Requires the sta stage.
  bool at_speed_lbist = false;
};

/// Slow-speed control clock for the at-speed LBIST pair, as a multiple of
/// the at-speed capture period (a production-tester shift clock is several
/// times slower than F_max).
inline constexpr double kAtSpeedSlowFactor = 4.0;

/// Result of the opt-in verify stage (see FlowOptions::verify).
struct VerifySummary {
  bool ran = false;
  /// Mission-mode equivalence of the final netlist vs the pre-transform
  /// snapshot; trustworthy only when `error` is empty.
  bool equivalent = true;
  bool proven_x_init = false;  ///< ternary pass proved X-initial silence
  int matched_pos = 0;         ///< functional PO pairs in the miter
  std::int64_t frames_simulated = 0;
  CexTrace cex;  ///< shrunk counterexample when !equivalent

  bool replay_ran = false;  ///< false when ATPG was masked off / no patterns
  std::int64_t replay_claimed = 0;
  std::int64_t replay_confirmed = 0;
  bool replay_ok = true;

  std::string error;  ///< miter construction failure (no common POs, ...)

  bool ok() const { return ran && error.empty() && equivalent && replay_ok; }
};

struct FlowResult {
  std::string circuit;
  int num_test_points = 0;

  // ---- Table 1: test data ----
  int num_ffs = 0;  ///< scan flip-flops incl. test points (#FF)
  int num_chains = 0;
  int max_chain_length = 0;  ///< l_max
  std::int64_t num_faults = 0;
  double fault_coverage_pct = 0.0;
  double fault_efficiency_pct = 0.0;
  int saf_patterns = 0;
  std::int64_t tdv_bits = 0;
  std::int64_t tat_cycles = 0;

  // ---- Table 2: silicon area ----
  int num_cells = 0;  ///< placeable standard cells (fillers reported separately)
  int num_rows = 0;
  double row_length_um = 0.0;        ///< length of one row
  double total_row_length_um = 0.0;  ///< L_rows
  double core_area_um2 = 0.0;
  double filler_area_pct = 0.0;  ///< % of core area used by fillers
  double chip_area_um2 = 0.0;
  double wire_length_um = 0.0;  ///< L_wires
  double aspect_ratio = 1.0;
  double row_utilization_pct = 0.0;

  // ---- Table 3: timing ----
  StaResult sta;

  // ---- diagnostics ----
  int scan_enable_buffers = 0;
  int clock_buffers = 0;
  double scan_wire_length_um = 0.0;
  AtpgResult atpg;
  VerifySummary verify;  ///< populated by the opt-in verify stage

  /// At-speed vs slow-speed transition LBIST pair (FlowOptions::
  /// at_speed_lbist): capture period from the post-TPI STA, coverage gap =
  /// the faults only an at-speed clock can catch.
  struct AtSpeedReport {
    bool ran = false;
    double capture_period_ps = 0.0;  ///< at-speed period = STA worst t_cp
    double at_speed_coverage_pct = 0.0;
    double slow_speed_coverage_pct = 0.0;
    std::int64_t qualified_faults = 0;  ///< at-speed-eligible equiv faults
    std::int64_t total_faults = 0;
    double coverage_delta_pct() const {
      return at_speed_coverage_pct - slow_speed_coverage_pct;
    }
  };
  AtSpeedReport at_speed;

  // ---- instrumentation ----
  StageTimings timings;    ///< per-stage wall clock for this run
  MetricsSnapshot metrics; ///< registry snapshot after the last stage run

  /// True when a run() was stopped early by a cancellation token (see
  /// FlowEngine::set_cancel_token): stages that already finished keep
  /// their results, later ones never ran.
  bool cancelled = false;
};

/// Staged driver for the Fig. 2 flow. One engine instance = one flow run
/// over one netlist; construct a fresh engine per (circuit, tp_percent)
/// grid cell. Stages can be run all at once (run), or one at a time
/// (run_stage) with intermediate layout state inspected in between.
class FlowEngine {
 public:
  /// Engine over a caller-supplied netlist (consumed/modified in place).
  FlowEngine(Netlist& nl, const CircuitProfile& profile, const FlowOptions& opts);
  /// Generates a fresh circuit for `profile` and owns it.
  FlowEngine(const CellLibrary& lib, const CircuitProfile& profile,
             const FlowOptions& opts);
  ~FlowEngine();

  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Cooperative cancellation: run() re-checks the token before every
  /// stage and stops at the next stage boundary once it reads true, so a
  /// cancel lands within one stage's wall clock. The flag may be flipped
  /// from any thread (the flow server's cancel RPC does); not owned,
  /// nullptr disables the check. Finished stages keep their results and
  /// result().cancelled is set.
  void set_cancel_token(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Run the masked stages in flow order; a stage whose structural
  /// prerequisites were masked off is skipped with a warning (see
  /// StageMask docs for the reorder_atpg special case). Returns result().
  const FlowResult& run(StageMask mask = StageMask::all());

  /// Run a single stage now. Returns false (without running) when the
  /// stage already ran or its prerequisites are missing.
  bool run_stage(Stage stage);

  /// Metrics accumulated so far; fields of stages that have not run are
  /// default-initialised.
  const FlowResult& result() const { return res_; }
  bool stage_ran(Stage stage) const { return ran_[static_cast<std::size_t>(stage)]; }

  /// Design database threaded through all stages: TPI, ATPG and STA pull
  /// their derived views (TopoOrder / CombModel / testability) from here,
  /// so an edit-free stage boundary is a cache hit instead of a rebuild.
  DesignDB& design_db() { return *db_; }

  /// Intermediate layout state, for partial-flow callers (snapshots,
  /// custom analyses). Null until the producing stage ran.
  const Netlist& netlist() const { return *nl_; }
  const Floorplan* floorplan() const { return fp_ ? &*fp_ : nullptr; }
  const Placement* placement() const { return pl_ ? &*pl_ : nullptr; }
  const RoutingResult* routes() const { return routes_ ? &*routes_ : nullptr; }

 private:
  void do_tpi_scan();
  void do_floorplan_place();
  void do_reorder_atpg();
  void do_eco();
  void do_extract();
  void do_sta();
  void do_verify();
  /// Chain planning + stitch + control-net buffering: the structural part
  /// of stage 3, needed by eco even when ATPG is masked off.
  void stitch_scan_chains();
  bool prerequisites_ok(Stage stage) const;

  std::unique_ptr<Netlist> owned_nl_;  ///< set by the generating constructor
  Netlist* nl_;
  /// Pre-transform snapshot for the verify stage (null unless opts.verify).
  std::unique_ptr<Netlist> golden_;
  std::optional<DesignDB> db_;  ///< wraps *nl_, set in the constructors
  CircuitProfile profile_;
  FlowOptions opts_;
  const std::atomic<bool>* cancel_ = nullptr;

  FlowResult res_;
  std::array<bool, kNumStages> ran_{};
  /// Per-engine registry: every stage runs under a ScopedMetricsRegistry
  /// pointing here, so concurrent flows on a sweep pool stay isolated.
  MetricsRegistry metrics_;

  // Inter-stage state.
  ScanOptions scan_opts_;
  bool chains_stitched_ = false;
  std::vector<CellId> buffer_cells_;
  std::optional<Floorplan> fp_;
  std::optional<Placement> pl_;
  std::optional<RoutingResult> routes_;
  std::optional<ExtractionResult> extraction_;
};

}  // namespace tpi
