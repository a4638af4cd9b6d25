// Compiled combinational view of a netlist for fast repeated evaluation.
//
// The model flattens the topologically-ordered combinational cells of a
// SeqView into a dense node array with cached net indices, and records the
// circuit's controllable inputs (PIs + pseudo-PIs = flip-flop outputs) and
// observable outputs (POs + pseudo-POs = flip-flop D nets). In the capture
// view this is exactly the full-scan test model the paper's ATPG operates
// on; in the application view TSFFs appear as transparent nodes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace tpi {

struct CombNode {
  CellId cell = kNoCell;
  CellFunc func = CellFunc::kBuf;
  int num_inputs = 0;      ///< logic inputs actually connected
  NetId in[4] = {kNoNet, kNoNet, kNoNet, kNoNet};
  NetId sel = kNoNet;      ///< MUX2 select
  NetId out = kNoNet;
  int level = 0;
};

/// Compact evaluation record consumed by the simulation kernels, 1:1 with
/// nodes() (same index space as producer_of/readers_of). copy_of is the
/// structural-hashing shortcut: when valid, this node's output carries the
/// same good/ternary value as that earlier net, so full sweeps copy one
/// word instead of re-evaluating the op. The real func/in/sel are always
/// kept — fault injection invalidates value equality, so the grading and
/// forced-replay kernels evaluate every op.
struct EvalOp {
  NetId out = kNoNet;
  NetId in[4] = {kNoNet, kNoNet, kNoNet, kNoNet};
  NetId sel = kNoNet;
  NetId copy_of = kNoNet;  ///< earlier net with the identical value, or kNoNet
  CellFunc func = CellFunc::kBuf;
  std::uint8_t num_inputs = 0;
};

class CombModel {
 public:
  CombModel(const Netlist& nl, SeqView view);
  /// Compile against a precomputed topological order (must be the result
  /// of levelize(nl, view)); lets DesignDB share one cached TopoOrder
  /// between the model and other consumers instead of levelizing twice.
  CombModel(const Netlist& nl, SeqView view, const TopoOrder& topo);
  /// Rebind-copy: identical compiled content served against `nl`, which
  /// must be a copy of the netlist `other` was built from (same content,
  /// same edit version). Lets DesignDB::adopt_views_from hand warm views
  /// to a job's private netlist copy without recompiling.
  CombModel(const CombModel& other, const Netlist& nl) : CombModel(other) { nl_ = &nl; }

  const Netlist& netlist() const { return *nl_; }
  SeqView view() const { return view_; }
  bool acyclic() const { return acyclic_; }

  const std::vector<CombNode>& nodes() const { return nodes_; }

  /// Kernel evaluation records, 1:1 with nodes().
  const std::vector<EvalOp>& eval_ops() const { return eval_ops_; }
  /// Nodes whose output was proven value-identical to an earlier net by
  /// structural hashing (op + canonicalised fanin value classes); also
  /// published as the `comb.nodes_deduped` metric.
  std::size_t nodes_deduped() const { return nodes_deduped_; }

  /// Node index computing each net, or −1 (inputs, constants, boundaries).
  int producer_of(NetId net) const { return producer_[static_cast<std::size_t>(net)]; }
  /// Node indices reading each net (logic pins only), ascending topo order,
  /// one entry per pin (a node reading the net twice appears twice).
  std::span<const int> readers_of(NetId net) const {
    const auto n = static_cast<std::size_t>(net);
    return {readers_.data() + reader_begin_[n], readers_.data() + reader_begin_[n + 1]};
  }

  /// Controllable nets: non-clock PI nets followed by boundary-FF Q nets.
  const std::vector<NetId>& input_nets() const { return input_nets_; }
  std::size_t num_pi_inputs() const { return num_pi_inputs_; }  ///< prefix that are real PIs

  /// Observable nets: PO nets followed by boundary-FF D nets (pseudo-POs).
  const std::vector<NetId>& observe_nets() const { return observe_nets_; }
  std::size_t num_po_observes() const { return num_po_observes_; }

  /// Boundary flip-flops in this view, aligned with the pseudo-PI/PPO
  /// portions of input_nets()/observe_nets().
  const std::vector<CellId>& boundary_ffs() const { return boundary_ffs_; }

  /// Nets tied to constants by TIE cells.
  const std::vector<NetId>& const0_nets() const { return const0_nets_; }
  const std::vector<NetId>& const1_nets() const { return const1_nets_; }

  std::size_t num_nets() const { return nl_->num_nets(); }
  int max_level() const { return max_level_; }

  /// True when a fault effect on `net` can still reach an observe net (a PO
  /// or pseudo-PO) through the combinational logic. Computed once by a
  /// backward sweep from observe_nets(); fault simulation uses it to skip
  /// whole faults in dead cones and to stop propagating events into logic
  /// that no observe point can see.
  bool net_reaches_observe(NetId net) const {
    return reaches_observe_[static_cast<std::size_t>(net)] != 0;
  }
  /// True when `net` is itself an observe net (a PO or pseudo-PO); O(1)
  /// table the grading kernel uses instead of scanning observe_nets().
  bool is_observe_net(NetId net) const { return observed_[static_cast<std::size_t>(net)] != 0; }
  /// Nets with net_reaches_observe() set (diagnostics for the cone mask).
  std::size_t num_observable_cone_nets() const { return num_observable_cone_nets_; }

 private:
  const Netlist* nl_;
  SeqView view_;
  bool acyclic_ = true;
  std::vector<CombNode> nodes_;
  std::vector<EvalOp> eval_ops_;
  std::size_t nodes_deduped_ = 0;
  std::vector<int> producer_;
  /// CSR readers: net n's readers are readers_[reader_begin_[n], reader_begin_[n + 1]).
  std::vector<std::uint32_t> reader_begin_;
  std::vector<int> readers_;
  std::vector<NetId> input_nets_;
  std::size_t num_pi_inputs_ = 0;
  std::vector<NetId> observe_nets_;
  std::size_t num_po_observes_ = 0;
  std::vector<CellId> boundary_ffs_;
  std::vector<NetId> const0_nets_;
  std::vector<NetId> const1_nets_;
  std::vector<char> reaches_observe_;
  std::vector<char> observed_;
  std::size_t num_observable_cone_nets_ = 0;
  int max_level_ = 0;
};

}  // namespace tpi
