#include "sim/comb_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "util/metrics.hpp"

namespace tpi {
namespace {

/// Ops whose value is invariant under fanin permutation; their hash keys
/// sort the fanin value classes so A&B and B&A collide.
bool symmetric_func(CellFunc f) {
  switch (f) {
    case CellFunc::kAnd:
    case CellFunc::kNand:
    case CellFunc::kOr:
    case CellFunc::kNor:
    case CellFunc::kXor:
    case CellFunc::kXnor:
      return true;
    default:
      return false;
  }
}

// Structural-hashing key: [func, num_inputs, in-class x4, sel-class].
using NodeKey = std::array<std::int32_t, 7>;

/// Open-addressing set of structural-hashing keys, each mapped to the
/// first node that carried it. A slot is one uint64: a 32-bit fingerprint
/// of the key's hash above that node's index + 1 (0 = empty), so the
/// randomly probed table is 8 bytes per slot and stores no keys. A
/// fingerprint match is confirmed by rebuilding the stored node's key,
/// which is final once the node has been hashed: its fanin classes were
/// set by earlier nodes and never change.
class NodeKeyTable {
 public:
  /// Room for `max_keys` keys at a load factor of at most one half.
  explicit NodeKeyTable(std::size_t max_keys)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_keys, 16)), 0),
        mask_(slots_.size() - 1) {}

  /// The first node stored with `key` (`key_of(i)` rebuilds node i's
  /// key), or `node` after storing it.
  template <class KeyOf>
  std::uint32_t find_or_insert(const NodeKey& key, std::uint32_t node, KeyOf&& key_of) {
    const std::uint64_t h = hash(key);
    const auto fingerprint = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = std::uint64_t{fingerprint} << 32 | (std::uint64_t{node} + 1);
        return node;
      }
      if (static_cast<std::uint32_t>(slot >> 32) != fingerprint) continue;
      const auto stored = static_cast<std::uint32_t>(slot) - 1;
      if (key_of(stored) == key) return stored;
    }
  }

 private:
  static std::uint64_t hash(const NodeKey& k) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::int32_t v : k) {
      h = (h ^ static_cast<std::uint32_t>(v)) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    return h;
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_;
};

}  // namespace

CombModel::CombModel(const Netlist& nl, SeqView view)
    : CombModel(nl, view, levelize(nl, view)) {}

CombModel::CombModel(const Netlist& nl, SeqView view, const TopoOrder& topo)
    : nl_(&nl), view_(view) {
  acyclic_ = topo.acyclic;
  producer_.assign(nl.num_nets(), -1);

  nodes_.reserve(topo.order.size());
  for (const CellId cid : topo.order) {
    const CellInst& inst = nl.cell(cid);
    const CellSpec* spec = inst.spec;
    CombNode node;
    node.cell = cid;
    node.func = spec->func;
    node.level = topo.level[static_cast<std::size_t>(cid)];
    max_level_ = std::max(max_level_, node.level);
    node.out = inst.output_net();
    // Fan-in from the spec's logic pins. A transparent TSFF (out follows
    // D) and a MUX2 keep fixed input slots even when a pin is unconnected;
    // a gate packs its connected inputs.
    const bool fixed_slots = spec->func == CellFunc::kTsff || spec->func == CellFunc::kMux2;
    int k = 0;
    for (const int p : spec->logic_pins) {
      const NetId n = inst.conn[static_cast<std::size_t>(p)];
      if (p == spec->select_pin) {
        node.sel = n;
      } else if (n != kNoNet || fixed_slots) {
        assert(k < 4);
        node.in[k++] = n;
      }
    }
    node.num_inputs = k;
    if (node.out != kNoNet) {
      producer_[static_cast<std::size_t>(node.out)] = static_cast<int>(nodes_.size());
    }
    nodes_.push_back(node);
  }

  // CSR readers: count pins per net, prefix-sum, then fill in node order
  // so each net's readers come out ascending.
  auto for_each_read = [&](auto&& fn) {
    for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
      const CombNode& node = nodes_[idx];
      for (int i = 0; i < node.num_inputs; ++i) {
        if (node.in[i] != kNoNet) fn(node.in[i], idx);
      }
      if (node.sel != kNoNet) fn(node.sel, idx);
    }
  };
  reader_begin_.assign(nl.num_nets() + 1, 0);
  for_each_read([&](NetId net, std::size_t) {
    ++reader_begin_[static_cast<std::size_t>(net) + 1];
  });
  for (std::size_t n = 0; n < nl.num_nets(); ++n) reader_begin_[n + 1] += reader_begin_[n];
  readers_.resize(reader_begin_.back());
  std::vector<std::uint32_t> fill(reader_begin_.begin(), reader_begin_.end() - 1);
  for_each_read([&](NetId net, std::size_t idx) {
    readers_[fill[static_cast<std::size_t>(net)]++] = static_cast<int>(idx);
  });

  // Inputs: non-clock PIs, then boundary-FF outputs (pseudo-PIs).
  for (std::size_t i = 0; i < nl.num_pis(); ++i) {
    const int pi = static_cast<int>(i);
    if (nl.is_clock_net(nl.pi_net(pi))) continue;
    input_nets_.push_back(nl.pi_net(pi));
  }
  num_pi_inputs_ = input_nets_.size();

  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellId cid = static_cast<CellId>(c);
    const CellInst& inst = nl.cell(cid);
    if (!inst.spec->sequential || !is_boundary(nl, cid, view)) continue;
    boundary_ffs_.push_back(cid);
    const NetId q = inst.output_net();
    if (q != kNoNet) input_nets_.push_back(q);
  }

  // Observables: POs, then boundary-FF D nets (pseudo-POs).
  for (std::size_t i = 0; i < nl.num_pos(); ++i) {
    observe_nets_.push_back(nl.po_net(static_cast<int>(i)));
  }
  num_po_observes_ = observe_nets_.size();
  for (const CellId cid : boundary_ffs_) {
    const CellInst& inst = nl.cell(cid);
    const NetId d = inst.conn[static_cast<std::size_t>(inst.spec->d_pin)];
    if (d != kNoNet) observe_nets_.push_back(d);
  }

  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellInst& inst = nl.cell(static_cast<CellId>(c));
    if (inst.spec->func == CellFunc::kTie0) {
      if (inst.output_net() != kNoNet) const0_nets_.push_back(inst.output_net());
    } else if (inst.spec->func == CellFunc::kTie1) {
      if (inst.output_net() != kNoNet) const1_nets_.push_back(inst.output_net());
    }
  }

  // Backward observability: a net reaches an observe point iff it is one,
  // or feeds a node whose output does. nodes_ is topologically ordered, so
  // a single reverse sweep converges.
  reaches_observe_.assign(nl.num_nets(), 0);
  for (const NetId n : observe_nets_) reaches_observe_[static_cast<std::size_t>(n)] = 1;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    const CombNode& node = *it;
    if (node.out == kNoNet || !reaches_observe_[static_cast<std::size_t>(node.out)]) continue;
    for (int i = 0; i < node.num_inputs; ++i) {
      if (node.in[i] != kNoNet) reaches_observe_[static_cast<std::size_t>(node.in[i])] = 1;
    }
    if (node.sel != kNoNet) reaches_observe_[static_cast<std::size_t>(node.sel)] = 1;
  }
  for (const char c : reaches_observe_) {
    num_observable_cone_nets_ += static_cast<std::size_t>(c != 0);
  }

  observed_.assign(nl.num_nets(), 0);
  for (const NetId n : observe_nets_) observed_[static_cast<std::size_t>(n)] = 1;

  // Structural hashing: assign each net a value class (a representative
  // net proven to carry the identical word in every good/ternary sweep).
  // Buffers and transparent TSFFs alias their output to the input's class;
  // a node whose (op, canonicalised fanin classes) key was already seen
  // gets copy_of = the first node's output, and full sweeps copy the word
  // instead of re-evaluating. Constants of the same polarity share one
  // class. Classes are structural, so they stay valid for ternary sweeps;
  // they are NOT valid under fault injection, which is why EvalOp keeps
  // the real op for the grading/forced kernels.
  std::vector<NetId> cls(nl.num_nets());
  for (std::size_t i = 0; i < cls.size(); ++i) cls[i] = static_cast<NetId>(i);
  if (!const0_nets_.empty()) {
    for (const NetId n : const0_nets_) cls[static_cast<std::size_t>(n)] = const0_nets_.front();
  }
  if (!const1_nets_.empty()) {
    for (const NetId n : const1_nets_) cls[static_cast<std::size_t>(n)] = const1_nets_.front();
  }

  auto class_of = [&](NetId n) {
    return n == kNoNet ? -1 : static_cast<std::int32_t>(cls[static_cast<std::size_t>(n)]);
  };
  auto node_key = [&](const CombNode& node) {
    NodeKey key{};
    key[0] = static_cast<std::int32_t>(node.func);
    key[1] = node.num_inputs;
    for (int i = 0; i < 4; ++i) key[2 + i] = i < node.num_inputs ? class_of(node.in[i]) : -1;
    key[6] = class_of(node.sel);
    if (symmetric_func(node.func)) {
      // Canonicalise fanin order (at most four classes; open-coded to keep
      // GCC's std::sort array-bounds analysis out of the picture).
      for (int i = 1; i < node.num_inputs; ++i) {
        const std::int32_t v = key[static_cast<std::size_t>(2 + i)];
        int j = i - 1;
        while (j >= 0 && key[static_cast<std::size_t>(2 + j)] > v) {
          key[static_cast<std::size_t>(2 + j + 1)] = key[static_cast<std::size_t>(2 + j)];
          --j;
        }
        key[static_cast<std::size_t>(2 + j + 1)] = v;
      }
    }
    return key;
  };

  eval_ops_.reserve(nodes_.size());
  NodeKeyTable seen(nodes_.size());
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    const CombNode& node = nodes_[idx];
    EvalOp op;
    op.out = node.out;
    op.sel = node.sel;
    op.func = node.func;
    op.num_inputs = static_cast<std::uint8_t>(node.num_inputs);
    for (int i = 0; i < node.num_inputs; ++i) op.in[i] = node.in[i];
    if (node.out == kNoNet || node.num_inputs == 0) {
      eval_ops_.push_back(op);
      continue;
    }
    if (node.func == CellFunc::kBuf || node.func == CellFunc::kClkBuf ||
        node.func == CellFunc::kTsff) {
      // Pure pass-through: alias the class, no dedup counted.
      if (node.in[0] != kNoNet) {
        cls[static_cast<std::size_t>(node.out)] = cls[static_cast<std::size_t>(node.in[0])];
      }
      eval_ops_.push_back(op);
      continue;
    }
    const auto self = static_cast<std::uint32_t>(idx);
    const std::uint32_t first = seen.find_or_insert(
        node_key(node), self, [&](std::uint32_t i) { return node_key(nodes_[i]); });
    if (first != self) {
      op.copy_of = nodes_[first].out;
      cls[static_cast<std::size_t>(node.out)] = cls[static_cast<std::size_t>(op.copy_of)];
      ++nodes_deduped_;
    }
    eval_ops_.push_back(op);
  }
  metrics().add("comb.nodes_deduped", nodes_deduped_);
}

}  // namespace tpi
