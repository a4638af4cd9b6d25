#include "atpg/fault.hpp"

#include <cassert>

namespace tpi {
namespace {

bool scan_sink(const Netlist& nl, const PinRef& ref) {
  return nl.cell(ref.cell).spec->is_scan_or_clock_pin(ref.pin);
}

// Transitive closure of "feeds only scan/clock infrastructure": a net whose
// every load is a scan pin, or the input of a buffer/inverter whose output
// is itself scan-only. Catches the scan-enable buffer trees (flow step 3).
std::vector<char> scan_only_nets(const Netlist& nl) {
  std::vector<char> scan_only(nl.num_nets(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t ni = 0; ni < nl.num_nets(); ++ni) {
      if (scan_only[ni]) continue;
      const Net& net = nl.net(static_cast<NetId>(ni));
      if (!net.po_sinks.empty() || net.fanout() == 0) continue;
      bool all_scan = true;
      for (const PinRef& s : net.sinks) {
        if (scan_sink(nl, s)) continue;
        const CellInst& inst = nl.cell(s.cell);
        const CellFunc f = inst.spec->func;
        const NetId out = inst.output_net();
        if ((f == CellFunc::kBuf || f == CellFunc::kInv || f == CellFunc::kClkBuf) &&
            out != kNoNet && scan_only[static_cast<std::size_t>(out)]) {
          continue;
        }
        all_scan = false;
        break;
      }
      if (all_scan) {
        scan_only[ni] = 1;
        changed = true;
      }
    }
  }
  return scan_only;
}

}  // namespace

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::kStuckAt: return "stuck_at";
    case FaultModel::kTransition: return "transition";
  }
  return "?";
}

std::optional<FaultModel> fault_model_from_name(std::string_view name) {
  if (name == "stuck_at") return FaultModel::kStuckAt;
  if (name == "transition") return FaultModel::kTransition;
  return std::nullopt;
}

FaultList build_fault_list(const CombModel& model) {
  return build_fault_list(model, FaultModel::kStuckAt);
}

FaultList build_fault_list(const CombModel& model, FaultModel fault_model) {
  const Netlist& nl = model.netlist();
  FaultList out;
  const std::vector<char> scan_only = scan_only_nets(nl);

  // Uncollapsed universe: 2 faults per connected cell pin + 2 per PI.
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellInst& inst = nl.cell(static_cast<CellId>(c));
    if (inst.spec->func == CellFunc::kFiller) continue;
    for (const NetId n : inst.conn) {
      if (n != kNoNet) out.total_uncollapsed += 2;
    }
  }
  out.total_uncollapsed += static_cast<std::int64_t>(nl.num_pis()) * 2;

  // Representatives: stem faults per driven net; branch faults per sink pin
  // of multi-fanout nets. equiv_count starts with the pins each represents.
  // A net's faults are contiguous from its stem SA0 entry, stem_at[net]:
  // the stem at +0 (SA0) and +1 (SA1), branch s at +2+2s and +3+2s.
  std::vector<Fault> faults;
  std::vector<int> stem_at(nl.num_nets(), -1);  // -1 = undriven, no faults
  auto add_fault = [&](NetId net, int sink, bool stuck1, int equiv, bool scan_tested) {
    Fault f;
    f.net = net;
    f.branch = sink >= 0 ? nl.net(net).sinks[static_cast<std::size_t>(sink)] : PinRef{};
    f.stuck1 = stuck1;
    f.model = fault_model;
    f.equiv_count = equiv;
    if (scan_tested) f.status = FaultStatus::kScanTested;
    faults.push_back(f);
  };

  for (std::size_t ni = 0; ni < nl.num_nets(); ++ni) {
    const NetId net_id = static_cast<NetId>(ni);
    const Net& net = nl.net(net_id);
    const bool has_driver = net.driver.valid() || net.driven_by_pi();
    if (!has_driver) continue;
    const bool clock = nl.is_clock_net(net_id) || scan_only[ni];
    const bool multi = net.fanout() > 1;

    int stem_equiv = 1;  // the driver pin (or PI)
    bool stem_scan = clock;
    if (!multi) {
      // Single-fanout: the sink pin fault is identical to the stem fault.
      stem_equiv += static_cast<int>(net.sinks.size());
      if (!net.sinks.empty() && scan_sink(nl, net.sinks.front())) stem_scan = true;
    } else {
      // A stem whose every load is scan infrastructure (e.g. a scan-enable
      // net) is exercised by shift/flush, not capture.
      bool all_scan = net.po_sinks.empty();
      for (const PinRef& s : net.sinks) all_scan = all_scan && scan_sink(nl, s);
      stem_scan = stem_scan || all_scan;
    }
    stem_at[ni] = static_cast<int>(faults.size());
    add_fault(net_id, -1, false, stem_equiv, stem_scan);
    add_fault(net_id, -1, true, stem_equiv, stem_scan);
    if (multi) {
      for (std::size_t s = 0; s < net.sinks.size(); ++s) {
        const bool scan = clock || scan_sink(nl, net.sinks[s]);
        add_fault(net_id, static_cast<int>(s), false, 1, scan);
        add_fault(net_id, static_cast<int>(s), true, 1, scan);
      }
    }
  }

  // Gate-level equivalence collapsing, forward in topo order so chains of
  // folds accumulate into the furthest-downstream representative.
  // `sink` >= 0 only on multi-fanout nets (input_key), which hold every
  // sink's branch pair.
  auto find = [&](NetId net, int sink, bool stuck1) -> Fault* {
    const int stem = stem_at[static_cast<std::size_t>(net)];
    if (stem < 0) return nullptr;
    const std::size_t at = static_cast<std::size_t>(stem + (sink < 0 ? 0 : 2 + 2 * sink) + stuck1);
    assert(at < faults.size() && faults[at].net == net && faults[at].stuck1 == stuck1);
    return &faults[at];
  };
  auto fold = [&](NetId in_net, int in_sink, bool in_stuck1, NetId out_net, bool out_stuck1) {
    Fault* src = find(in_net, in_sink, in_stuck1);
    Fault* dst = find(out_net, -1, out_stuck1);
    if (src == nullptr || dst == nullptr || src == dst) return;
    if (src->equiv_count == 0) return;  // already folded
    if (src->status != dst->status) return;  // never merge scan with logic
    dst->equiv_count += src->equiv_count;
    src->equiv_count = 0;
  };

  for (const CombNode& node : model.nodes()) {
    if (node.out == kNoNet) continue;
    // Locate each input's fault key: stem when single-fanout, else branch.
    auto input_key = [&](NetId in_net, int* sink_out) -> bool {
      const Net& in = nl.net(in_net);
      if (in.fanout() > 1) {
        for (std::size_t s = 0; s < in.sinks.size(); ++s) {
          if (in.sinks[s].cell == node.cell) {
            // Match the logic pin reading this net on this node.
            *sink_out = static_cast<int>(s);
            return true;
          }
        }
        return false;
      }
      *sink_out = -1;
      return true;
    };
    for (int i = 0; i < node.num_inputs; ++i) {
      const NetId in_net = node.in[i];
      int sink = -1;
      if (!input_key(in_net, &sink)) continue;
      switch (node.func) {
        case CellFunc::kBuf:
        case CellFunc::kClkBuf:
          fold(in_net, sink, false, node.out, false);
          fold(in_net, sink, true, node.out, true);
          break;
        case CellFunc::kInv:
          fold(in_net, sink, false, node.out, true);
          fold(in_net, sink, true, node.out, false);
          break;
        default:
          break;  // XOR/XNOR/MUX/TSFF: no structural equivalence
      }
      // Controlling-value folds hold for stuck-at only: an input transition
      // is not equivalent to an output transition through AND/OR gates.
      if (fault_model != FaultModel::kStuckAt) continue;
      switch (node.func) {
        case CellFunc::kAnd:
          fold(in_net, sink, false, node.out, false);
          break;
        case CellFunc::kNand:
          fold(in_net, sink, false, node.out, true);
          break;
        case CellFunc::kOr:
          fold(in_net, sink, true, node.out, true);
          break;
        case CellFunc::kNor:
          fold(in_net, sink, true, node.out, false);
          break;
        default:
          break;  // XOR/XNOR/MUX/TSFF: no structural equivalence
      }
    }
  }

  out.faults.reserve(faults.size());
  for (Fault& f : faults) {
    if (f.equiv_count > 0) out.faults.push_back(f);
  }
  return out;
}

}  // namespace tpi
