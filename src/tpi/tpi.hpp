// Test point insertion (TPI) — the paper's core DfT step (§3.1).
//
// Test points are transparent scan flip-flops (TSFFs, Fig. 1): one cell
// that acts as observation point and control point at the same time. In
// application mode (TE=TR=0) the TSFF is transparent, adding two
// multiplexer delays to the functional path; in scan capture mode it
// observes its D input and controls its output from the internal FF.
//
// Insertion is the iterative process of §3.1:
//   1. compute testability measures (SCOAP, COP, fanout-free regions),
//   2. the analyses pick the method/cost function for the round,
//   3. insert the best-scoring test points, reconnect clocks, repeat.
//
// Insertion stops at the requested test-point count. Nets can be excluded
// (used by the timing-driven TPI ablation that keeps test points off
// small-slack paths, cf. Cheng & Lin and §5).
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "netlist/design_db.hpp"
#include "netlist/netlist.hpp"
#include "testability/testability.hpp"

namespace tpi {

enum class TpiMethod {
  kCop,     ///< COP detection-probability cost only
  kScoap,   ///< SCOAP-based cost only
  kHybrid,  ///< COP primary, SCOAP tie-break, FFR-size weighting (default)
};

struct TpiOptions {
  int num_test_points = 0;
  TpiMethod method = TpiMethod::kHybrid;
  int rounds = 5;  ///< testability analyses are recomputed each round
  /// Nets on which no test point may be inserted (timing-driven TPI).
  std::unordered_set<NetId> excluded_nets;
  /// Shared test-control primary inputs (created on first use).
  std::string te_pi_name = "tp_te";
  std::string tr_pi_name = "tp_tr";
};

struct TpiReport {
  std::vector<CellId> test_points;  ///< inserted TSFF cells
  std::vector<NetId> sites;         ///< original nets that were split
  int rounds_run = 0;
  /// Per round: how many distinct nets the round's insertions touched
  /// (from the Netlist edit journal; -1 when the bounded journal
  /// overflowed mid-round). A round that inserted nothing records 0 and
  /// leaves the cached testability views untouched for the next consumer.
  std::vector<int> nets_changed_per_round;
};

/// Insert `opts.num_test_points` TSFFs into the netlist. The TSFFs' TI pins
/// are left open for the scan stitcher; TE/TR connect to shared control
/// PIs; CK connects to the clock of the nearest flip-flop (§3.1 step 2).
/// Each round pulls the capture CombModel + testability from the design
/// database (§3.1 step 1 — a rebuild only when the previous round edited
/// the netlist) and journals which nets its insertions changed.
TpiReport insert_test_points(DesignDB& db, const TpiOptions& opts);

/// Exposed for tests and the ablation benches: rank candidate nets for one
/// insertion round (lowest score = best candidate).
std::vector<NetId> rank_tpi_candidates(const Netlist& nl, const TestabilityResult& t,
                                       const CombModel& model, TpiMethod method,
                                       const std::unordered_set<NetId>& excluded,
                                       std::size_t max_candidates);

}  // namespace tpi
