#include "netlist/levelize.hpp"

#include <algorithm>
#include <cstdint>

namespace tpi {

bool is_boundary(const Netlist& nl, CellId cell_id, SeqView view) {
  const CellSpec* spec = nl.cell(cell_id).spec;
  if (!spec->sequential) return false;
  if (spec->func == CellFunc::kTsff) return view == SeqView::kCapture;
  return true;
}

namespace {

/// Whether a cell of `spec` computes logic in the combinational graph of
/// `view`. Boundaries, clock buffers, fillers and ties stay out (ties have
/// no inputs and are handled as constant sources by consumers).
bool in_comb_graph(const CellSpec& spec, SeqView view) {
  switch (spec.func) {
    case CellFunc::kFiller:
    case CellFunc::kClkBuf:
    case CellFunc::kTie0:
    case CellFunc::kTie1:
      return false;
    case CellFunc::kTsff:
      return view == SeqView::kApplication;  // transparent = combinational
    default:
      break;
  }
  return !spec.sequential;
}

}  // namespace

// Kahn's algorithm over a local logic-edge CSR instead of Net::sinks and
// CellInst: one pass over the cells records each graph cell's logic-pin
// mask (CellSpec::logic_pin_mask) and output net, a count pass over the
// nets keeps the edges from graph drivers into logic pins, and a fill pass
// lays them out per net in Net::sinks order. The FIFO, its seeds
// (ascending cell id) and each net's sink order are those of a walk over
// the netlist itself, so order and level come out the same.
TopoOrder levelize(const Netlist& nl, SeqView view) {
  static_assert(kMaxCellPins <= 8, "logic-pin masks are one byte");
  TopoOrder out;
  const std::size_t n = nl.num_cells();
  out.level.assign(n, -1);

  // Per cell: in the graph or not, its logic-pin mask (0 outside the
  // graph) and its output net (kNoNet outside the graph).
  std::vector<char> active(n, 0);
  std::vector<std::uint8_t> pin_mask(n, 0);
  std::vector<NetId> out_net(n, kNoNet);
  std::size_t active_count = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const CellInst& inst = nl.cell(static_cast<CellId>(c));
    if (!in_comb_graph(*inst.spec, view)) continue;
    active[c] = 1;
    ++active_count;
    pin_mask[c] = inst.spec->logic_pin_mask;
    out_net[c] = inst.output_net();
  }
  auto logic_edge = [&](const PinRef& sink) {
    return (pin_mask[static_cast<std::size_t>(sink.cell)] >> sink.pin) & 1u;
  };
  auto graph_driver = [&](const Net& net) {
    return net.driver.valid() && active[static_cast<std::size_t>(net.driver.cell)];
  };

  // Net k's logic sinks are edge_sink[edge_begin[k], edge_begin[k + 1]).
  const std::size_t num_nets = nl.num_nets();
  std::vector<std::uint32_t> edge_begin(num_nets + 1, 0);
  for (std::size_t k = 0; k < num_nets; ++k) {
    const Net& net = nl.net(static_cast<NetId>(k));
    std::uint32_t edges = 0;
    if (graph_driver(net)) {
      for (const PinRef& sink : net.sinks) edges += logic_edge(sink);
    }
    edge_begin[k + 1] = edge_begin[k] + edges;
  }
  std::vector<CellId> edge_sink(edge_begin.back());
  std::vector<int> indegree(n, 0);
  for (std::size_t k = 0, e = 0; k < num_nets; ++k) {
    const Net& net = nl.net(static_cast<NetId>(k));
    if (!graph_driver(net)) continue;
    for (const PinRef& sink : net.sinks) {
      if (!logic_edge(sink)) continue;
      edge_sink[e++] = sink.cell;
      ++indegree[static_cast<std::size_t>(sink.cell)];
    }
  }

  // The order vector is the FIFO.
  std::vector<CellId>& order = out.order;
  order.reserve(active_count);
  for (std::size_t c = 0; c < n; ++c) {
    if (active[c] && indegree[c] == 0) {
      order.push_back(static_cast<CellId>(c));
      out.level[c] = 0;
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto c = static_cast<std::size_t>(order[head]);
    const NetId onet = out_net[c];
    if (onet == kNoNet) continue;
    const auto k = static_cast<std::size_t>(onet);
    for (std::uint32_t e = edge_begin[k]; e < edge_begin[k + 1]; ++e) {
      const auto sc = static_cast<std::size_t>(edge_sink[e]);
      out.level[sc] = std::max(out.level[sc], out.level[c] + 1);
      if (--indegree[sc] == 0) order.push_back(edge_sink[e]);
    }
  }
  out.acyclic = (order.size() == active_count);
  return out;
}

}  // namespace tpi
