#include "verify/miter.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tpi {
namespace {

bool pi_is_clock(const Netlist& nl, int pi_index) {
  const auto& clocks = nl.clock_pis();
  return std::find(clocks.begin(), clocks.end(), pi_index) != clocks.end();
}

/// Map every net of `side` to a net in the miter: PI-driven nets resolve to
/// the shared (or tied) input net of the same name; everything else gets a
/// fresh prefixed clone.
std::vector<NetId> clone_side(const Netlist& side, const std::string& prefix, Netlist& m,
                              const std::unordered_map<std::string, NetId>& input_nets) {
  std::vector<NetId> net_map(side.num_nets(), kNoNet);
  for (std::size_t n = 0; n < side.num_nets(); ++n) {
    const Net& net = side.net(static_cast<NetId>(n));
    if (net.driven_by_pi()) {
      net_map[n] = input_nets.at(side.pi_name(net.pi_index));
    } else {
      net_map[n] = m.add_net(prefix + net.name);
    }
  }
  for (std::size_t c = 0; c < side.num_cells(); ++c) {
    const CellInst& cell = side.cell(static_cast<CellId>(c));
    const CellId clone = m.add_cell(cell.spec, prefix + cell.name);
    for (std::size_t p = 0; p < cell.conn.size(); ++p) {
      const NetId conn = cell.conn[p];
      if (conn == kNoNet) continue;
      m.connect(clone, static_cast<int>(p), net_map[static_cast<std::size_t>(conn)]);
    }
  }
  return net_map;
}

}  // namespace

MiterResult build_miter(const Netlist& a, const Netlist& b, const MiterOptions& opts) {
  MiterResult res;
  if (&a.library() != &b.library()) {
    res.error = "miter: netlists use different cell libraries";
    return res;
  }
  const CellLibrary& lib = a.library();
  const CellSpec* xor2 = lib.gate(CellFunc::kXor, 2);
  const CellSpec* or2 = lib.gate(CellFunc::kOr, 2);
  const CellSpec* tie0 = lib.by_name("TIE0");
  if (xor2 == nullptr || or2 == nullptr || tie0 == nullptr) {
    res.error = "miter: library lacks XOR2/OR2/TIE0";
    return res;
  }

  auto m = std::make_unique<Netlist>(&lib, a.name() + ".miter");

  // ---- inputs: shared by name, a's index order first, then b-only ----
  std::unordered_map<std::string, NetId> input_nets;
  std::unordered_set<std::string> a_pi_names;
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    const std::string& name = a.pi_name(static_cast<int>(i));
    a_pi_names.insert(name);
    const int pi = m->add_primary_input(name);
    const int b_idx = [&] {
      for (std::size_t j = 0; j < b.num_pis(); ++j) {
        if (b.pi_name(static_cast<int>(j)) == name) return static_cast<int>(j);
      }
      return -1;
    }();
    if (pi_is_clock(a, static_cast<int>(i)) || (b_idx >= 0 && pi_is_clock(b, b_idx))) {
      m->mark_clock(pi);
    }
    input_nets.emplace(name, m->pi_net(pi));
    res.shared_pis += (b_idx >= 0);
  }
  for (std::size_t j = 0; j < b.num_pis(); ++j) {
    const std::string& name = b.pi_name(static_cast<int>(j));
    if (a_pi_names.contains(name)) continue;
    // One-sided input: a DfT control the transform added. Clocks must stay
    // real clock roots (FF CK pins hang off them); data controls are held
    // at 0, the mission-mode setting.
    if (pi_is_clock(b, static_cast<int>(j)) || !opts.tie_unmatched_pis_low) {
      const int pi = m->add_primary_input(name);
      if (pi_is_clock(b, static_cast<int>(j))) m->mark_clock(pi);
      input_nets.emplace(name, m->pi_net(pi));
    } else {
      const NetId tied = m->add_net("tied." + name);
      const CellId tie = m->add_cell(tie0, "tie." + name);
      m->connect(tie, tie0->output_pin, tied);
      input_nets.emplace(name, tied);
      ++res.tied_pis;
    }
  }

  // ---- clone both sides ----
  const std::vector<NetId> a_nets = clone_side(a, "a.", *m, input_nets);
  const std::vector<NetId> b_nets = clone_side(b, "b.", *m, input_nets);

  // ---- XOR matched POs (a's PO order), OR-reduce to one output ----
  // Two POs may alias one net (a scan-out reusing a functional PO's FF);
  // with net-name keys that would collide, so the k-th occurrence of a key
  // gets a "#k" suffix — identical on both sides since POs keep their
  // relative order across transforms.
  const auto po_key = [&opts](const Netlist& nl, int i,
                              std::unordered_map<std::string, int>& seen) {
    std::string key = opts.match_pos_by_net ? nl.net(nl.po_net(i)).name : nl.po_name(i);
    if (const int k = seen[key]++; k > 0) key.append("#").append(std::to_string(k));
    return key;
  };
  std::unordered_map<std::string, NetId> b_pos;
  std::unordered_map<std::string, int> a_seen, b_seen;
  for (std::size_t j = 0; j < b.num_pos(); ++j) {
    b_pos.emplace(po_key(b, static_cast<int>(j), b_seen),
                  b_nets[static_cast<std::size_t>(b.po_net(static_cast<int>(j)))]);
  }
  std::vector<NetId> diffs;
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const std::string name = po_key(a, static_cast<int>(i), a_seen);
    const auto it = b_pos.find(name);
    if (it == b_pos.end()) {
      ++res.unmatched_pos;
      continue;
    }
    const CellId x = m->add_cell(xor2, "miter.xor." + name);
    m->connect(x, 0, a_nets[static_cast<std::size_t>(a.po_net(static_cast<int>(i)))]);
    m->connect(x, 1, it->second);
    const NetId d = m->add_net("miter.d." + name);
    m->connect(x, xor2->output_pin, d);
    diffs.push_back(d);
    b_pos.erase(it);
    ++res.matched_pos;
  }
  res.unmatched_pos += static_cast<int>(b_pos.size());  // b-only POs (scan-outs)
  if (res.matched_pos == 0) {
    res.error = "miter: the netlists share no primary output names";
    return res;
  }
  if (!opts.ignore_unmatched_pos && res.unmatched_pos > 0) {
    res.error = "miter: " + std::to_string(res.unmatched_pos) + " unmatched primary outputs";
    return res;
  }

  // Balanced OR reduction keeps the miter cone shallow on wide circuits.
  int level = 0;
  while (diffs.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < diffs.size(); i += 2) {
      const std::string tag = std::to_string(level) + "." + std::to_string(i / 2);
      const CellId o = m->add_cell(or2, "miter.or." + tag);
      m->connect(o, 0, diffs[i]);
      m->connect(o, 1, diffs[i + 1]);
      const NetId out = m->add_net("miter.o." + tag);
      m->connect(o, or2->output_pin, out);
      next.push_back(out);
    }
    if (diffs.size() % 2 != 0) next.push_back(diffs.back());
    diffs = std::move(next);
    ++level;
  }
  res.out_net = diffs.front();
  m->add_primary_output("miter_out", res.out_net);
  res.netlist = std::move(m);
  return res;
}

}  // namespace tpi
