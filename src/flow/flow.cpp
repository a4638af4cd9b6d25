#include "flow/flow.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "bist/lbist.hpp"
#include "circuits/generator.hpp"
#include "layout/placement.hpp"
#include "sim/simd.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"
#include "verify/miter.hpp"
#include "verify/replay.hpp"

namespace tpi {
namespace {

// Pre-TPI timing pass for timing-driven TPI (§5): quick layout + STA on the
// unmodified netlist to find the small-slack nets.
std::unordered_set<NetId> small_slack_nets(DesignDB& db, const CircuitProfile& profile,
                                           double slack_threshold_ps) {
  // Work on a throwaway layout of the same netlist (no edits needed: the
  // analysis is read-only, so the topo view it caches survives into TPI).
  const Netlist& nl = db.netlist();
  FloorplanOptions fpo;
  fpo.target_row_utilization = profile.target_row_utilization;
  const Floorplan fp = make_floorplan(nl, fpo);
  const Placement pl = place(nl, fp);
  const RoutingResult routes = route(nl, fp, pl);
  const ExtractionResult px = extract(nl, routes);
  const StaResult sta = run_sta(db, px);
  std::unordered_set<NetId> out;
  for (std::size_t n = 0; n < sta.net_slack_ps.size(); ++n) {
    if (sta.net_slack_ps[n] < slack_threshold_ps) out.insert(static_cast<NetId>(n));
  }
  return out;
}

}  // namespace

std::optional<Stage> stage_from_name(std::string_view name) {
  for (const Stage s : kAllStages) {
    if (name == stage_name(s)) return s;
  }
  return std::nullopt;
}

FlowEngine::FlowEngine(Netlist& nl, const CircuitProfile& profile, const FlowOptions& opts)
    : nl_(&nl), profile_(profile), opts_(opts) {
  db_.emplace(*nl_);
  if (opts_.verify) golden_ = std::make_unique<Netlist>(*nl_);
  res_.circuit = profile_.name;
  scan_opts_.max_chain_length = profile_.max_chain_length;
  scan_opts_.max_chains = profile_.max_chains;
}

FlowEngine::FlowEngine(const CellLibrary& lib, const CircuitProfile& profile,
                       const FlowOptions& opts)
    : owned_nl_(generate_circuit(lib, profile)), nl_(owned_nl_.get()), profile_(profile),
      opts_(opts) {
  db_.emplace(*nl_);
  if (opts_.verify) golden_ = std::make_unique<Netlist>(*nl_);
  res_.circuit = profile_.name;
  scan_opts_.max_chain_length = profile_.max_chain_length;
  scan_opts_.max_chains = profile_.max_chains;
}

FlowEngine::~FlowEngine() = default;

bool FlowEngine::prerequisites_ok(Stage stage) const {
  switch (stage) {
    case Stage::kTpiScan:
    case Stage::kFloorplanPlace:
      return true;
    case Stage::kReorderAtpg:
    case Stage::kEco:
      return fp_.has_value() && pl_.has_value();
    case Stage::kExtract:
      return routes_.has_value();
    case Stage::kSta:
      return extraction_.has_value();
    case Stage::kVerify:
      return golden_ != nullptr;  // requires FlowOptions::verify's snapshot
  }
  return false;
}

bool FlowEngine::run_stage(Stage stage) {
  const std::size_t idx = static_cast<std::size_t>(stage);
  if (ran_[idx]) return false;
  if (!prerequisites_ok(stage)) {
    log_warn() << res_.circuit << ": stage " << stage_name(stage)
               << " skipped (prerequisite stage did not run)";
    return false;
  }
  const auto t0 = std::chrono::steady_clock::now();
  {
    // Everything a stage records through metrics() lands in this engine's
    // registry; the stage span nests the kernel spans recorded below it.
    ScopedMetricsRegistry scoped(metrics_);
    TPI_SPAN(stage_name(stage));
    switch (stage) {
      case Stage::kTpiScan: do_tpi_scan(); break;
      case Stage::kFloorplanPlace: do_floorplan_place(); break;
      case Stage::kReorderAtpg: do_reorder_atpg(); break;
      case Stage::kEco: do_eco(); break;
      case Stage::kExtract: do_extract(); break;
      case Stage::kSta: do_sta(); break;
      case Stage::kVerify: do_verify(); break;
    }
    metrics_.add("flow.stages_run");
    metrics_.set_max("rt.flow.peak_rss_kb", peak_rss_kb());
    // Physical datapath width of the kernel backend (64 or 512).
    // Runtime-prefixed: it varies by host CPU only, never the simulated
    // results, so it stays out of the deterministic snapshot.
    metrics_.set("rt.sim.lane_width", simd_lane_bits());
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  ran_[idx] = true;
  res_.timings.ran[idx] = true;
  res_.timings.wall_ms[idx] = wall_ms;
  res_.metrics = metrics_.snapshot();
  return true;
}

const FlowResult& FlowEngine::run(StageMask mask) {
  for (const Stage s : kAllStages) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      res_.cancelled = true;
      log_info() << res_.circuit << ": run cancelled before stage " << stage_name(s);
      return res_;
    }
    if (mask.has(s)) run_stage(s);
  }
  log_info() << profile_.name << " @" << opts_.tp_percent << "% TP: cells=" << res_.num_cells
             << " chip=" << res_.chip_area_um2 << "um2 wires=" << res_.wire_length_um
             << "um Tcp=" << (res_.sta.worst.valid ? res_.sta.worst.t_cp_ps : 0.0) << "ps";
  return res_;
}

// ---- stage 1: TPI & scan insertion ----
void FlowEngine::do_tpi_scan() {
  Netlist& nl = *nl_;
  const int base_ffs = static_cast<int>(nl.flip_flops().size());
  const int num_tp =
      static_cast<int>(std::lround(opts_.tp_percent / 100.0 * static_cast<double>(base_ffs)));
  TpiOptions tpi_opts;
  tpi_opts.num_test_points = num_tp;
  tpi_opts.method = opts_.tpi_method;
  if (opts_.timing_driven_tpi && num_tp > 0) {
    tpi_opts.excluded_nets = small_slack_nets(*db_, profile_, opts_.timing_exclude_slack_ps);
  }
  const TpiReport tpi_report = insert_test_points(*db_, tpi_opts);
  res_.num_test_points = static_cast<int>(tpi_report.test_points.size());

  insert_scan(nl);
  res_.num_ffs = static_cast<int>(nl.flip_flops().size());
}

// ---- stage 2: floorplanning & placement ----
void FlowEngine::do_floorplan_place() {
  FloorplanOptions fpo;
  fpo.target_row_utilization = profile_.target_row_utilization;
  fp_ = make_floorplan(*nl_, fpo);
  pl_ = place(*nl_, *fp_);
}

// Structural part of stage 3: assign scan cells to chains (layout-driven
// when enabled), stitch the TI wiring, and buffer the scan-enable /
// test-point control nets. Runs at most once per engine; when stage 3 is
// masked off it still executes as a prerequisite of the eco stage.
void FlowEngine::stitch_scan_chains() {
  if (chains_stitched_) return;
  chains_stitched_ = true;
  Netlist& nl = *nl_;

  ChainPlan plan;
  if (opts_.layout_driven_reorder) {
    plan = plan_chains(nl, scan_opts_, pl_->pos);
    reorder_chains(plan, pl_->pos);
  } else {
    plan = plan_chains(nl, scan_opts_, {});
  }
  res_.scan_wire_length_um = chain_wire_length(plan, pl_->pos);
  stitch_chains(nl, plan);
  res_.num_chains = plan.num_chains;
  res_.max_chain_length = plan.max_length;

  // Buffer the scan-enable and test-point control nets (step 3: "buffers
  // and inverters may be added to the scan-enable signals").
  const std::size_t cells_before_buffers = nl.num_cells();
  for (const char* ctrl : {"scan_en", "tp_tr", "tp_te"}) {
    const NetId n = nl.find_net(ctrl);
    if (n != kNoNet) res_.scan_enable_buffers += buffer_high_fanout_net(nl, n);
  }
  for (std::size_t c = cells_before_buffers; c < nl.num_cells(); ++c) {
    buffer_cells_.push_back(static_cast<CellId>(c));
  }
}

// ---- stage 3: layout-driven scan chain reordering + ATPG ----
void FlowEngine::do_reorder_atpg() {
  stitch_scan_chains();

  AtpgOptions atpg_opts = opts_.atpg;
  atpg_opts.seed ^= profile_.seed;
  res_.atpg = run_atpg(*db_, atpg_opts);
  res_.num_faults = res_.atpg.total_faults;
  res_.fault_coverage_pct = res_.atpg.fault_coverage_pct;
  res_.fault_efficiency_pct = res_.atpg.fault_efficiency_pct;
  res_.saf_patterns = res_.atpg.num_patterns();
  res_.tdv_bits = test_data_volume(res_.num_chains, res_.max_chain_length, res_.saf_patterns);
  // Launch-on-capture spends one extra capture cycle per pattern (eq. 2
  // generalized); TDV is unchanged — the scan data volume does not depend
  // on the capture cycle count.
  const int capture_cycles =
      res_.atpg.fault_model == FaultModel::kTransition ? 2 : 1;
  res_.tat_cycles =
      test_application_time(res_.max_chain_length, res_.saf_patterns, capture_cycles);
}

// ---- stage 4: ECO — buffers placed, clock trees, fillers, routing ----
void FlowEngine::do_eco() {
  stitch_scan_chains();  // no-op when stage 3 already ran
  Netlist& nl = *nl_;
  const Floorplan& fp = *fp_;
  Placement& pl = *pl_;

  eco_place(nl, fp, pl, buffer_cells_);
  const CtsReport cts = synthesize_clock_trees(nl, fp, pl);
  res_.clock_buffers = cts.buffers_added;

  const Netlist::Stats pre_filler = nl.stats();
  res_.num_cells = static_cast<int>(pre_filler.cells);
  const FillerReport fillers = insert_fillers(nl, fp, pl);

  res_.num_rows = fp.num_rows;
  res_.row_length_um = fp.row_length_um;
  res_.total_row_length_um = fp.total_row_length_um();
  res_.core_area_um2 = fp.core_area_um2();
  res_.chip_area_um2 = fp.chip_area_um2();
  res_.aspect_ratio = fp.aspect_ratio();
  res_.filler_area_pct = 100.0 * fillers.area_um2 / fp.core_area_um2();
  res_.row_utilization_pct = 100.0 * (1.0 - fillers.area_um2 / fp.core_area_um2());

  // Scan stitching added si/so ports: refresh the IO pad ring before
  // routing so every port has a physical location.
  assign_io_pads(nl, fp, pl);
  routes_ = route(nl, fp, pl);
  res_.wire_length_um = routes_->total_wire_length_um;
}

// ---- stage 5: layout extraction ----
void FlowEngine::do_extract() { extraction_ = extract(*nl_, *routes_); }

// ---- stage 6: static timing analysis ----
void FlowEngine::do_sta() {
  res_.sta = run_sta(*db_, *extraction_);
  if (!opts_.at_speed_lbist || !res_.sta.worst.valid) return;

  // At-speed LBIST pair (opt-in): transition-fault BIST clocked at the
  // post-TPI F_max, with a slow-speed control session. Both sessions share
  // the LFSR seed, so the coverage gap isolates the clock period.
  const double t_cp = res_.sta.worst.t_cp_ps;
  LbistOptions lo;
  lo.fault_model = FaultModel::kTransition;
  lo.capture_period_ps = t_cp;
  // Defect size pinned to the rated clock period for BOTH sessions: at
  // speed every site with positive arrival qualifies, while the slow
  // capture (4x t_cp) needs arrival > 3 x t_cp — more slack than any path
  // has — so the coverage gap isolates the clock period, which is the
  // point of the experiment. (Leaving fault_size_ps at 0 would re-derive
  // delta from each session's own period and erase the gap.)
  lo.fault_size_ps = t_cp;
  lo.arrival_ps = &res_.sta.arrival_ps;
  const CombModel& capture = db_->comb_model(SeqView::kCapture);
  // One transition fault list for the pair. The slow session, which
  // qualifies next to nothing, marks a copy; the fast one, whose live list
  // and bank are the pair's largest, takes the list itself, so the copy
  // never coexists with them.
  FaultList faults = build_fault_list(capture, FaultModel::kTransition);
  LbistOptions slow_lo = lo;
  slow_lo.capture_period_ps = kAtSpeedSlowFactor * t_cp;
  const LbistResult slow = run_lbist(capture, faults, slow_lo);
  const LbistResult fast = run_lbist(capture, std::move(faults), lo);

  FlowResult::AtSpeedReport& r = res_.at_speed;
  r.ran = true;
  r.capture_period_ps = t_cp;
  r.at_speed_coverage_pct = fast.final_coverage_pct;
  r.slow_speed_coverage_pct = slow.final_coverage_pct;
  r.qualified_faults = fast.qualified;
  r.total_faults = fast.total_faults;
  metrics().add("atspeed.lbist.qualified", static_cast<std::uint64_t>(fast.qualified));
  metrics().add("atspeed.lbist.patterns", static_cast<std::uint64_t>(fast.patterns_applied));
  log_info() << res_.circuit << " at-speed LBIST: Tcp=" << t_cp << "ps coverage="
             << fast.final_coverage_pct << "% (slow@" << kAtSpeedSlowFactor
             << "x=" << slow.final_coverage_pct << "%)";
}

// ---- stage 7 (opt-in): equivalence check + pattern replay ----
//
// The verify.* metrics carry no "rt." prefix: checking and replay are
// single-threaded and seed-deterministic, so they are part of the sweep
// JSON determinism contract (bit-identical at any jobs setting).
void FlowEngine::do_verify() {
  VerifySummary& v = res_.verify;
  v.ran = true;

  const MiterResult m = build_miter(*golden_, *nl_);
  if (!m.ok()) {
    v.error = m.error;
    v.equivalent = false;
    log_warn() << res_.circuit << " verify: " << m.error;
    return;
  }
  v.matched_pos = m.matched_pos;
  EquivChecker checker(*m.netlist);
  const EquivResult equiv = checker.check();
  v.equivalent = equiv.equivalent;
  v.proven_x_init = equiv.proven_x_init;
  v.frames_simulated = equiv.frames_simulated;
  v.cex = equiv.cex;
  metrics().add("verify.miter.matched_pos", static_cast<std::uint64_t>(m.matched_pos));
  metrics().add("verify.equiv.frames", static_cast<std::uint64_t>(equiv.frames_simulated));
  metrics().add("verify.equiv.mismatches", equiv.equivalent ? 0u : 1u);
  if (!equiv.equivalent) {
    log_warn() << res_.circuit << " verify: MISMATCH vs pre-transform netlist ("
               << equiv.cex.source << ", fail frame " << equiv.cex.fail_frame << ")";
  }

  if (ran_[static_cast<std::size_t>(Stage::kReorderAtpg)] && !res_.atpg.patterns.empty()) {
    const ReplayReport replay = replay_patterns(db_->comb_model(SeqView::kCapture), res_.atpg);
    v.replay_ran = true;
    v.replay_claimed = replay.claimed;
    v.replay_confirmed = replay.confirmed;
    v.replay_ok = replay.ok();
    metrics().add("verify.replay.checked", static_cast<std::uint64_t>(replay.claimed));
    metrics().add("verify.replay.confirmed", static_cast<std::uint64_t>(replay.confirmed));
    metrics().add("verify.replay.failures",
                  static_cast<std::uint64_t>(replay.failures.size()));
    if (!replay.ok()) {
      log_warn() << res_.circuit << " verify: " << replay.failures.size()
                 << " claimed fault detections did not replay";
    }
  }
}

}  // namespace tpi
