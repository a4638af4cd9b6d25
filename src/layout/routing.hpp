// Global routing (§3.2 flow step 4, Fig. 3c).
//
// Every net gets a rectilinear spanning tree (Prim) over its placed pins;
// tree edges are L-routed across a gcell grid with per-edge capacity
// derived from the metal stack. Nets crossing over-capacity gcell edges
// take detours, so a congested layout (high row utilisation, §4.3) shows
// longer total wire length — the L_wires column of Table 2.
#pragma once

#include <vector>

#include "layout/placement.hpp"

namespace tpi {

/// Routed topology of one net: node 0 is the driver; every other node
/// links to its parent. Sinks appear in net order (cell sinks, then POs).
struct RouteTree {
  std::vector<Point> node;
  std::vector<int> parent;        ///< parent[0] = -1
  std::vector<double> edge_um;    ///< wire length of node->parent edge
  double length_um = 0.0;         ///< total, including detour share

  /// Path length from the root to a node (for Elmore extraction).
  double path_to_root_um(int node_index) const {
    double d = 0.0;
    for (int v = node_index; parent[static_cast<std::size_t>(v)] >= 0;
         v = parent[static_cast<std::size_t>(v)]) {
      d += edge_um[static_cast<std::size_t>(v)];
    }
    return d;
  }
};

struct RoutingResult {
  std::vector<RouteTree> nets;  ///< indexed by NetId
  double total_wire_length_um = 0.0;
  double detour_length_um = 0.0;
  int overflowed_crossings = 0;
};

RoutingResult route(const Netlist& nl, const Floorplan& fp, const Placement& pl);

}  // namespace tpi
