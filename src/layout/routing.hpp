// Global routing (§3.2 flow step 4, Fig. 3c).
//
// Every net gets a rectilinear spanning tree (Prim) over its placed pins;
// tree edges are L-routed across a gcell grid with per-edge capacity
// derived from the metal stack. Nets crossing over-capacity gcell edges
// take detours, so a congested layout (high row utilisation, §4.3) shows
// longer total wire length — the L_wires column of Table 2.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "layout/placement.hpp"

namespace tpi {

/// Routed topology of one net, a view into the RoutingResult that stores
/// every net's tree: node 0 is the driver; every other node links to its
/// parent. Sinks appear in net order (cell sinks, then POs). RouteTree
/// reads a tree; RouteTreeEdit writes one in place.
template <bool kWritable>
struct RouteTreeView {
  template <typename T>
  using Elem = std::conditional_t<kWritable, T, const T>;

  std::span<Elem<Point>> node;
  std::span<Elem<int>> parent;      ///< parent[0] = -1
  std::span<Elem<double>> edge_um;  ///< wire length of node->parent edge
  Elem<double>& length_um;          ///< total, including detour share

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
using RouteTree = RouteTreeView<false>;
using RouteTreeEdit = RouteTreeView<true>;

/// Every net's route tree in one flat store, sized once per route() call:
/// net n owns nodes [first[n], first[n + 1]) of the node, parent and edge
/// arrays. Trees are views into the store, so they live as long as the
/// result; a copy is deep and its trees view the copy.
class RoutingResult {
 public:
  double total_wire_length_um = 0.0;
  double detour_length_um = 0.0;
  int overflowed_crossings = 0;

  std::size_t num_nets() const { return length_um_.size(); }
  RouteTree tree(std::size_t net) const {
    const std::size_t at = first_[net], size = first_[net + 1] - at;
    return {{node_.data() + at, size}, {parent_.data() + at, size},
            {edge_um_.data() + at, size}, length_um_[net]};
  }
  RouteTreeEdit edit_tree(std::size_t net) {
    const std::size_t at = first_[net], size = first_[net + 1] - at;
    return {{node_.data() + at, size}, {parent_.data() + at, size},
            {edge_um_.data() + at, size}, length_um_[net]};
  }

 private:
  friend RoutingResult route(const Netlist& nl, const Floorplan& fp, const Placement& pl);

  std::vector<std::uint32_t> first_{0};  ///< num_nets() + 1 node offsets
  std::vector<Point> node_;
  std::vector<int> parent_;
  std::vector<double> edge_um_;
  std::vector<double> length_um_;  ///< indexed by NetId
};

RoutingResult route(const Netlist& nl, const Floorplan& fp, const Placement& pl);

}  // namespace tpi
