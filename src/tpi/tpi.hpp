// Test point insertion (TPI) — the paper's core DfT step (§3.1).
//
// Test points are transparent scan flip-flops (TSFFs, Fig. 1): one cell
// that acts as observation point and control point at the same time. In
// application mode (TE=TR=0) the TSFF is transparent, adding two
// multiplexer delays to the functional path; in scan capture mode it
// observes its D input and controls its output from the internal FF.
//
// Insertion is the iterative process of §3.1:
//   1. compute testability measures (SCOAP, COP),
//   2. the analyses pick the method/cost function for the round,
//   3. insert the best-scoring test points, reconnect clocks, repeat.
//
// Insertion stops at the requested test-point count. Nets can be excluded
// (used by the timing-driven TPI ablation that keeps test points off
// small-slack paths, cf. Cheng & Lin and §5).
#pragma once

#include <unordered_set>
#include <vector>

#include "netlist/design_db.hpp"
#include "netlist/netlist.hpp"
#include "testability/testability.hpp"

namespace tpi {

enum class TpiMethod {
  kCop,     ///< COP detection-probability cost only
  kScoap,   ///< SCOAP-based cost only
  kHybrid,  ///< exact COP gain of each hard net, COP hardness tie-break (default)
};

struct TpiOptions {
  int num_test_points = 0;
  TpiMethod method = TpiMethod::kHybrid;
  int rounds = 5;  ///< testability analyses are recomputed each round
  /// Nets on which no test point may be inserted (timing-driven TPI).
  std::unordered_set<NetId> excluded_nets;
};

struct TpiReport {
  std::vector<CellId> test_points;  ///< inserted TSFF cells
  std::vector<NetId> sites;         ///< original nets that were split
  int rounds_run = 0;
};

/// Insert `opts.num_test_points` TSFFs into the netlist. The TSFFs' TI pins
/// are left open for the scan stitcher; TE/TR connect to shared control
/// PIs; CK connects to the clock of the nearest flip-flop (§3.1 step 2).
/// Each round pulls the capture CombModel + testability from the design
/// database (§3.1 step 1 — a rebuild only when the previous round edited
/// the netlist).
TpiReport insert_test_points(DesignDB& db, const TpiOptions& opts);

/// Work counters of one rank_tpi_candidates call.
struct RankStats {
  std::size_t shortlisted = 0;  ///< hard legal nets the hybrid method considered
  std::size_t gain_evals = 0;   ///< of those, how many had their exact gain computed
};

/// Exposed for tests and the ablation benches: rank candidate nets for one
/// insertion round (lowest score = best candidate). Returns the first
/// `max_candidates` of the full ranking; the hybrid method computes exact
/// gains only for the nets whose gain bound lets them reach that prefix.
std::vector<NetId> rank_tpi_candidates(const Netlist& nl, const TestabilityResult& t,
                                       const CombModel& model, TpiMethod method,
                                       const std::unordered_set<NetId>& excluded,
                                       std::size_t max_candidates,
                                       RankStats* stats = nullptr);

}  // namespace tpi
