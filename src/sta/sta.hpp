// Graph-based static timing analysis (§3.2 flow step 6, the Pearl stage).
//
// Arrival times and transition times propagate through the application-mode
// combinational graph (TSFF test points appear as transparent cells via
// their D→Q arc — their CK→Q arc is a test-mode false path and is blocked,
// as §4.4 describes). Cell delays come from NLDM table interpolation; loads
// and wire delays come from extraction; lookups outside the characterised
// grid are extrapolated and the affected cells are counted as "slow nodes".
// Clock arrival at each flip-flop is propagated through the physical clock
// tree, so skew is a property of the synthesized tree.
//
// The critical path report decomposes T_cp exactly as the paper's eq. (3):
//   T_cp = T_wires + T_intrinsic + T_load-dep + T_setup + T_skew.
#pragma once

#include <vector>

#include "extraction/extraction.hpp"
#include "netlist/levelize.hpp"

namespace tpi {

class DesignDB;

struct CriticalPath {
  bool valid = false;
  int clock_pi = -1;     ///< capture domain (index of the clock PI)
  double t_cp_ps = 0.0;  ///< effective minimum period for this path
  // eq. (3) decomposition:
  double t_wires_ps = 0.0;
  double t_intrinsic_ps = 0.0;
  double t_load_dep_ps = 0.0;
  double t_setup_ps = 0.0;
  double t_skew_ps = 0.0;

  int test_points_on_path = 0;  ///< #TP_cp of Table 3
  int logic_cells_on_path = 0;
  CellId launch_ff = kNoCell;   ///< kNoCell when the path starts at a PI
  CellId capture_ff = kNoCell;
  std::vector<CellId> cells;    ///< path cells, launch side first

  double fmax_mhz() const { return t_cp_ps > 0 ? 1.0e6 / t_cp_ps : 0.0; }
};

struct StaResult {
  CriticalPath worst;                      ///< across all domains
  std::vector<CriticalPath> per_domain;    ///< indexed like Netlist::clock_pis()
  int slow_nodes = 0;                      ///< cells with extrapolated lookups
  /// Worst slack per net in "period space" relative to the worst path
  /// (0 = on the critical path); used by timing-driven TPI.
  std::vector<double> net_slack_ps;
  /// Data arrival time per net (diagnostics / tests).
  std::vector<double> arrival_ps;
};

StaResult run_sta(const Netlist& nl, const ExtractionResult& parasitics);

/// Same analysis, pulling the application-view TopoOrder from the design
/// database's cache instead of levelizing, so analyses of one netlist
/// version share one order.
StaResult run_sta(DesignDB& db, const ExtractionResult& parasitics);

}  // namespace tpi
