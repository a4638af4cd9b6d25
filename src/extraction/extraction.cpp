#include "extraction/extraction.hpp"

#include <algorithm>
#include <vector>

namespace tpi {
namespace {

// Thick upper-metal class (long nets).
constexpr double kRLongOhmPerUm = 0.25;
constexpr double kCLongFfPerUm = 0.22;
// Nets at least this long are promoted to the thick upper-metal class.
constexpr double kLongNetThresholdUm = 400.0;

}  // namespace

ExtractionResult extract(const Netlist& nl, const RoutingResult& routes) {
  ExtractionResult res;
  res.nets.resize(nl.num_nets());
  res.pin_elmore_ps.assign(nl.num_cells() * kMaxCellPins, 0.0);
  // Per-node scratch, reused across nets.
  std::vector<double> down_cap, delay;
  std::vector<int> order, depth;

  for (std::size_t ni = 0; ni < nl.num_nets(); ++ni) {
    const Net& net = nl.net(static_cast<NetId>(ni));
    const RouteTree tree = routes.tree(ni);
    NetParasitics& p = res.nets[ni];

    // Layer class by net length: long nets are promoted to thick metal.
    const bool long_net = tree.length_um >= kLongNetThresholdUm;
    const double r_per_um = long_net ? kRLongOhmPerUm : kRShortOhmPerUm;
    const double c_per_um = long_net ? kCLongFfPerUm : kCShortFfPerUm;

    for (const PinRef& s : net.sinks) {
      p.pin_cap_ff += nl.cell(s.cell).spec->pins[static_cast<std::size_t>(s.pin)].cap_ff;
    }
    p.pin_cap_ff += kPoPadCapFf * static_cast<double>(net.po_sinks.size());
    p.wire_cap_ff = c_per_um * tree.length_um;
    p.total_cap_ff = p.wire_cap_ff + p.pin_cap_ff;
    res.total_wire_cap_ff += p.wire_cap_ff;

    // Elmore over the route tree: each edge is a pi segment (half the edge
    // capacitance at each end); node 0 is the driver, node j>=1 is sink j-1.
    const std::size_t n_nodes = tree.node.size();
    if (n_nodes < 2) continue;
    // Downstream capacitance per node (children have higher indices is NOT
    // guaranteed by Prim order, so accumulate via parent pointers).
    down_cap.assign(n_nodes, 0.0);
    for (std::size_t v = 1; v < n_nodes; ++v) {
      // Sink pin / pad capacitance at the leaf node.
      const std::size_t sink_idx = v - 1;
      if (sink_idx < net.sinks.size()) {
        const PinRef& s = net.sinks[sink_idx];
        down_cap[v] += nl.cell(s.cell).spec->pins[static_cast<std::size_t>(s.pin)].cap_ff;
      } else {
        down_cap[v] += kPoPadCapFf;
      }
      down_cap[v] += c_per_um * tree.edge_um[v] / 2.0;  // near half of own edge
    }
    // Propagate capacitance rootward. Repeated relaxation is avoided by
    // processing nodes in decreasing depth; compute depths first.
    order.resize(n_nodes);
    for (std::size_t v = 0; v < n_nodes; ++v) order[v] = static_cast<int>(v);
    depth.assign(n_nodes, 0);
    for (std::size_t v = 1; v < n_nodes; ++v) {
      int d = 0;
      for (int u = static_cast<int>(v); tree.parent[static_cast<std::size_t>(u)] >= 0;
           u = tree.parent[static_cast<std::size_t>(u)]) {
        ++d;
      }
      depth[v] = d;
    }
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return depth[static_cast<std::size_t>(a)] > depth[static_cast<std::size_t>(b)]; });
    for (const int v : order) {
      const int par = tree.parent[static_cast<std::size_t>(v)];
      if (par < 0) continue;
      down_cap[static_cast<std::size_t>(par)] +=
          down_cap[static_cast<std::size_t>(v)] +
          c_per_um * tree.edge_um[static_cast<std::size_t>(v)] / 2.0;  // far half
    }
    // Elmore delay: walk from root outward in increasing depth.
    delay.assign(n_nodes, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int v = *it;
      const int par = tree.parent[static_cast<std::size_t>(v)];
      if (par < 0) continue;
      const double r = r_per_um * tree.edge_um[static_cast<std::size_t>(v)];
      // The edge resistance charges its own far-end half-capacitance (part
      // of down_cap[v]) plus everything below; the near-end half hangs on
      // the parent side of R and is not charged through it.
      const double c_seen = down_cap[static_cast<std::size_t>(v)];
      // ohm * fF = 1e-3 ps.
      delay[static_cast<std::size_t>(v)] =
          delay[static_cast<std::size_t>(par)] + 1e-3 * r * c_seen;
    }
    // Node s + 1 is cell sink s; the PO pad nodes after them have no reader.
    for (std::size_t v = 1; v < n_nodes && v - 1 < net.sinks.size(); ++v) {
      const PinRef& s = net.sinks[v - 1];
      res.pin_elmore_ps[static_cast<std::size_t>(s.cell) * kMaxCellPins +
                        static_cast<std::size_t>(s.pin)] = delay[v];
    }
  }
  return res;
}

}  // namespace tpi
