// Cycle-accurate functional (application-mode) simulation.
//
// Models the circuit as seen in the field: TE=TR=0, TSFFs transparent,
// DFF/SDFF state advances on each clock. Used by the examples and by tests
// that verify TPI preserves functional behaviour (a test point must be
// logically invisible in application mode).
//
// The simulator is lane_words() x 64 instances wide: every PI/PO/state
// vector is word-major per signal (`v[i * lane_words() + j]` is signal i,
// lane word j), and one step() sweeps all lanes through the dispatched
// SIMD kernel. The default width of 1 is the legacy 64-lane interface.
#pragma once

#include <optional>
#include <vector>

#include "sim/parallel_sim.hpp"

namespace tpi {

class SequentialSim {
 public:
  explicit SequentialSim(const Netlist& nl, int lane_words = 1);

  /// Borrow an application-view model someone else owns (e.g. a DesignDB
  /// cache); the model must outlive the simulator and stay application
  /// view.
  explicit SequentialSim(const CombModel& model, int lane_words = 1);

  /// Number of state bits (application-view boundary flip-flops).
  std::size_t num_state_bits() const { return model_->boundary_ffs().size(); }

  /// Words per signal (1..kMaxLaneWords); lanes = 64 * lane_words().
  int lane_words() const { return sim_.lane_words(); }

  /// Reset all flip-flops to 0.
  void reset();

  /// Apply one clock cycle: drive the PI words, evaluate, sample POs, then
  /// advance flip-flop state from the D inputs. pi_words must hold
  /// num_pi_inputs() * lane_words() words (word-major per input);
  /// po_words is resized to num_po_observes() * lane_words().
  void step(const std::vector<Word>& pi_words, std::vector<Word>& po_words);

  /// State vector aligned with application-view boundary FFs, word-major
  /// per flip-flop (size num_state_bits() * lane_words()).
  const std::vector<Word>& state() const { return state_; }
  void set_state(const std::vector<Word>& s) { state_ = s; }

  const CombModel& model() const { return *model_; }

 private:
  std::optional<CombModel> owned_model_;  ///< empty in borrowed-model mode
  const CombModel* model_;                ///< owned_model_ or the borrowed one
  ParallelSim sim_;
  std::vector<Word> state_;
};

}  // namespace tpi
