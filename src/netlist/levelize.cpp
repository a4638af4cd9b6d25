#include "netlist/levelize.hpp"

#include <algorithm>

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

/// Whether `pin` feeds the cell's combinational function: an input that is
/// neither a clock nor a scan pin (TI/TE/TR); for a TSFF only D qualifies.
bool is_logic_input_pin(const CellSpec& spec, int pin) {
  if (spec.func == CellFunc::kTsff) return pin == spec.d_pin;
  const PinSpec& ps = spec.pins[static_cast<std::size_t>(pin)];
  if (ps.dir != PinDir::kInput || ps.is_clock) return false;
  // Scan pins of regular flip-flops are not part of the logic function.
  return pin != spec.ti_pin && pin != spec.te_pin && pin != spec.tr_pin;
}

bool in_graph(const Netlist& nl, CellId cell_id, SeqView view) {
  return in_comb_graph(*nl.cell(cell_id).spec, view);
}

}  // namespace

TopoOrder levelize(const Netlist& nl, SeqView view) {
  TopoOrder out;
  const std::size_t n = nl.num_cells();
  out.level.assign(n, -1);
  std::vector<int> indegree(n, 0);
  std::vector<char> active(n, 0);

  for (std::size_t c = 0; c < n; ++c) {
    const CellId id = static_cast<CellId>(c);
    if (!in_graph(nl, id, view)) continue;
    active[c] = 1;
    const CellInst& inst = nl.cell(id);
    for (std::size_t p = 0; p < inst.spec->pins.size(); ++p) {
      if (!is_logic_input_pin(*inst.spec, static_cast<int>(p))) continue;
      const NetId net = inst.conn[p];
      if (net == kNoNet) continue;
      const PinRef drv = nl.net(net).driver;
      if (drv.valid() && in_graph(nl, drv.cell, view)) ++indegree[c];
    }
  }

  std::vector<CellId> queue;
  for (std::size_t c = 0; c < n; ++c) {
    if (active[c] && indegree[c] == 0) {
      queue.push_back(static_cast<CellId>(c));
      out.level[c] = 0;
    }
  }

  out.order.reserve(n);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const CellId c = queue[head];
    out.order.push_back(c);
    const NetId onet = nl.cell(c).output_net();
    if (onet == kNoNet) continue;
    for (const PinRef& sink : nl.net(onet).sinks) {
      const std::size_t sc = static_cast<std::size_t>(sink.cell);
      if (!active[sc]) continue;
      // Only count edges into logic pins (a clock pin load is not a logic edge).
      if (!is_logic_input_pin(*nl.cell(sink.cell).spec, sink.pin)) continue;
      out.level[sc] = std::max(out.level[sc], out.level[static_cast<std::size_t>(c)] + 1);
      if (--indegree[sc] == 0) queue.push_back(sink.cell);
    }
  }

  std::size_t active_count = 0;
  for (std::size_t c = 0; c < n; ++c) active_count += active[c];
  out.acyclic = (out.order.size() == active_count);
  return out;
}

}  // namespace tpi
