// PODEM (path-oriented decision making) deterministic test generation.
//
// Classic Goel algorithm over the capture-view combinational model with a
// composite good/faulty 3-valued simulation: decisions are made only on
// controllable inputs (PIs and scan-cell outputs), objectives are derived
// from fault activation and D-frontier propagation, and backtrace is guided
// by SCOAP controllability/observability. Faults whose decision tree is
// exhausted are proven redundant (they count toward fault efficiency);
// faults hitting the backtrack limit are aborted.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/ternary.hpp"
#include "testability/testability.hpp"

namespace tpi {

struct PodemOptions {
  int backtrack_limit = 80;
  std::int64_t implication_limit = 2'000'000;  ///< per fault, safety net
};

enum class PodemOutcome { kTest, kRedundant, kAborted };

struct PodemResult {
  PodemOutcome outcome = PodemOutcome::kAborted;
  /// Test cube aligned with model.input_nets(); kX entries are don't-care.
  std::vector<Tern> cube;
  int backtracks = 0;
};

class Podem {
 public:
  Podem(const CombModel& model, const TestabilityResult& scoap, PodemOptions opts = {});

  PodemResult generate(const Fault& fault);

 private:
  struct Decision {
    std::size_t input_index;  ///< into model.input_nets()
    Tern value;
    bool flipped = false;
    std::size_t trail_mark;
  };

  void reset_state();
  void undo_to(std::size_t trail_mark);
  bool assign_and_imply(NetId net, Tern value);
  void rebuild_d_frontier();
  template <typename Fn>
  bool for_each_propagation_objective(int node_index, Fn&& try_objective);
  bool find_decision(NetId* in_net, Tern* in_val);
  bool backtrace(NetId obj_net, Tern obj_val, NetId* input_net, Tern* input_val);
  void filter_d_frontier();
  Tern good(NetId net) const { return code_good(v_[static_cast<std::size_t>(net)]); }

  const CombModel& model_;
  const TestabilityResult& scoap_;
  PodemOptions opts_;
  /// The target fault where it acts (resolve_fault_task, once per call).
  FaultTask task_;
  /// The one node whose evaluation injects the fault: the branch reader,
  /// or the stem net's producer (-1 when the stem is an input).
  int inject_node_ = -1;

  /// Composite good/faulty code per net (sim/ternary.hpp), then two
  /// constant slots past the last net: (0,0) and (1,1).
  std::vector<TernCode> v_;
  /// What implication evaluates per node. A gate folds its inputs through
  /// one code table, padded to four with the constant slot that is the
  /// table's identity, then applies NOT or nothing. MUX2 and the node that
  /// injects the fault are evaluated from their CombNode instead. A node
  /// with no output net has the (0,0) slot as output, which reads known, so
  /// it is never queued.
  struct ImplyNode {
    NetId in[4];
    NetId out;
    std::uint8_t fold;    ///< AND (BUF, INV too), OR, XOR, or generic
    std::uint8_t invert;  ///< 1: NAND, NOR, XNOR, INV
  };
  std::vector<ImplyNode> imply_nodes_;
  /// Undo log: every value change is recorded (a net's composite value can
  /// change more than once — (X,X) → (1,X) → (1,1) — across decision
  /// levels, so "reset to X on undo" would corrupt the shallower state).
  /// The live entries are trail_[0, trail_len_); the vector is storage.
  struct TrailEntry {
    NetId net;
    TernCode old;
  };
  std::vector<TrailEntry> trail_;
  std::size_t trail_len_ = 0;
  /// Per net: the trail index at which it left (X,X); valid while it is
  /// not (X,X).
  std::vector<std::uint32_t> first_pos_;
  /// Nets holding a D, in the order they got it. A D is fully known, so it
  /// changes only when undone; undoing the trail pops this stack in order.
  std::vector<NetId> d_nets_;
  std::vector<NetId> d_order_;   ///< rebuild_d_frontier's D nets by first_pos_
  std::vector<int> d_frontier_;  ///< candidate node indices (lazily filtered)
  /// Nodes awaiting evaluation, one bit per node index. Implication pops
  /// the lowest set bit, so nodes are evaluated in ascending index order.
  /// All zero between assign_and_imply calls.
  std::vector<std::uint64_t> pending_;
  /// Readers not queued because their output was already known, one bit
  /// per node: counts each once per assign_and_imply call. All zero
  /// between calls.
  std::vector<std::uint64_t> skipped_;
  std::vector<int> candidates_;  ///< find_decision's sorted frontier copy
  std::vector<Decision> decisions_;
  std::vector<char> is_input_;  ///< per net: controllable input
  std::vector<std::size_t> input_index_;  ///< net -> index into input_nets
  std::vector<char> observed_;
  bool detected_ = false;
  bool truncated_ = false;  ///< search shortcuts taken: exhaustion != proof
  std::int64_t implications_ = 0;
};

}  // namespace tpi
