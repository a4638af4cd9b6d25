// Bit-parallel logic simulation over a CombModel.
//
// Each net carries `lane_words()` 64-bit words laid out net-major: bit k of
// word j is the net's value under pattern j*64+k. The classic 64-pattern
// parallel evaluation is the lane_words()==1 case; the SIMD super-batch
// path widens a net visit to up to kMaxLaneWords words (512 patterns) and
// lets the dispatched kernel backend (sim/simd.hpp) vectorise the copy.
// The lane width is chosen algorithmically by callers (never from CPU
// capability), so results are bit-identical across backends.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/comb_model.hpp"

namespace tpi {

using Word = std::uint64_t;
inline constexpr int kWordBits = 64;

/// Evaluate one combinational node given packed input words (reference
/// single-word path, kept for tests).
Word eval_node_word(const CombNode& node, const Word* in, Word sel);

class ParallelSim {
 public:
  explicit ParallelSim(const CombModel& model, int lane_words = 1);

  /// Words per net (1, 2, 4 or 8 = kMaxLaneWords).
  int lane_words() const { return nw_; }
  /// Switch the lane width; resets all net state (zeros + constants) when
  /// the width actually changes.
  void configure_lanes(int lane_words);

  /// Direct access to a net's first lane word (the only word when
  /// lane_words() == 1 — the legacy 64-pattern interface).
  Word value(NetId net) const { return value_[static_cast<std::size_t>(net) * nw_]; }
  void set_value(NetId net, Word w) { value_[static_cast<std::size_t>(net) * nw_] = w; }

  /// A net's lane words [0, lane_words()).
  const Word* words(NetId net) const { return value_.data() + static_cast<std::size_t>(net) * nw_; }
  Word* words(NetId net) { return value_.data() + static_cast<std::size_t>(net) * nw_; }

  /// Set all controllable inputs from a packed vector aligned with
  /// model.input_nets(): words[i*lane_words() + j] is input i, lane word j.
  void load_inputs(const std::vector<Word>& words);

  /// Evaluate every node in topological order (full sweep) through the
  /// active kernel backend.
  void run();

  /// Launch-on-capture pair, the one place it is built (transition
  /// grading and replay both call it): load `inputs` and run the launch
  /// frame, copy its net values into `launch`, then clock the boundary
  /// flip-flops as SequentialSim::step does — each pseudo-input takes its
  /// flip-flop's D value from the launch frame while the PIs stay loaded —
  /// and run the capture frame. Two counted sweeps; values() is then the
  /// capture frame.
  void run_launch_capture(const std::vector<Word>& inputs, std::vector<Word>& launch);

  /// Capture observable values aligned with model.observe_nets():
  /// out[i*lane_words() + j] is observe net i, lane word j.
  void read_observes(std::vector<Word>& out) const;

  const CombModel& model() const { return *model_; }
  const std::vector<Word>& values() const { return value_; }

 private:
  void reset_values();

  const CombModel* model_;
  std::vector<Word> value_;  ///< net-major: num_nets() * nw_ words
  int nw_ = 1;
};

}  // namespace tpi
