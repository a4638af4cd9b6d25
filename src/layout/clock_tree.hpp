// Clock tree synthesis (§3.2 flow step 4, the CT-GEN stage).
//
// Each clock domain's sinks (flip-flop and TSFF CK pins) are clustered by
// recursive geometric bisection into groups of at most 18 sinks;
// every group gets a clock buffer at its centroid, and the buffers are
// clustered again until the root level, which the clock PI drives. The
// buffers are real netlist cells (they count toward Table 2's #cells) and
// the rewired clock nets are routed/extracted like any other net, so clock
// skew in Table 3 emerges from the physical tree, not from a constant.
#pragma once

#include <vector>

#include "layout/placement.hpp"

namespace tpi {

struct CtsReport {
  int buffers_added = 0;
  int domains = 0;
  std::vector<CellId> new_cells;  ///< for ECO placement
  int tree_levels = 0;
};

/// Rewire every clock domain through a buffered tree. New buffers are
/// ECO-placed by the caller (they appear in `new_cells`). Idempotent only
/// in the sense that domains already below the fanout limit are untouched.
CtsReport synthesize_clock_trees(Netlist& nl, const Floorplan& fp, Placement& pl);

}  // namespace tpi
