#include "sim/parallel_sim.hpp"

#include <cassert>

#include "sim/kernels.hpp"
#include "util/metrics.hpp"

namespace tpi {

Word eval_node_word(const CombNode& node, const Word* in, Word sel) {
  switch (node.func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:  // transparent in application mode
      return in[0];
    case CellFunc::kInv:
      return ~in[0];
    case CellFunc::kAnd:
    case CellFunc::kNand: {
      Word acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc &= in[i];
      return node.func == CellFunc::kAnd ? acc : ~acc;
    }
    case CellFunc::kOr:
    case CellFunc::kNor: {
      Word acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc |= in[i];
      return node.func == CellFunc::kOr ? acc : ~acc;
    }
    case CellFunc::kXor:
    case CellFunc::kXnor: {
      Word acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc ^= in[i];
      return node.func == CellFunc::kXor ? acc : ~acc;
    }
    case CellFunc::kMux2:
      return (in[0] & ~sel) | (in[1] & sel);
    default:
      return 0;
  }
}

ParallelSim::ParallelSim(const CombModel& model, int lane_words)
    : model_(&model), nw_(lane_words) {
  assert(nw_ >= 1 && nw_ <= kMaxLaneWords);
  reset_values();
}

void ParallelSim::configure_lanes(int lane_words) {
  assert(lane_words >= 1 && lane_words <= kMaxLaneWords);
  if (lane_words == nw_) return;
  nw_ = lane_words;
  reset_values();
}

void ParallelSim::reset_values() {
  value_.assign(model_->num_nets() * static_cast<std::size_t>(nw_), 0);
  for (const NetId n : model_->const1_nets()) {
    Word* w = words(n);
    for (int j = 0; j < nw_; ++j) w[j] = ~Word{0};
  }
}

void ParallelSim::load_inputs(const std::vector<Word>& in) {
  const auto& nets = model_->input_nets();
  assert(in.size() == nets.size() * static_cast<std::size_t>(nw_));
  for (std::size_t i = 0; i < nets.size(); ++i) {
    Word* w = words(nets[i]);
    for (int j = 0; j < nw_; ++j) w[j] = in[i * static_cast<std::size_t>(nw_) + j];
  }
}

void ParallelSim::run() {
  sim_kernels().sweep(*model_, value_.data(), nw_);
  // One registry touch per full sweep, not per node: good-value simulation
  // runs once per pattern batch, so this stays off the hot path. Deduped
  // nodes are copies, not evaluations.
  MetricsRegistry& m = metrics();
  m.add("sim.good_sweeps");
  m.add("sim.good_node_evals", model_->nodes().size() - model_->nodes_deduped());
}

void ParallelSim::run_launch_capture(const std::vector<Word>& inputs, std::vector<Word>& launch) {
  load_inputs(inputs);
  run();
  launch = value_;
  const CombModel& m = *model_;
  const std::size_t nff = m.boundary_ffs().size();
  for (std::size_t i = 0; i < nff; ++i) {
    const Word* d = launch.data() +
                    static_cast<std::size_t>(m.observe_nets()[m.num_po_observes() + i]) * nw_;
    Word* q = words(m.input_nets()[m.num_pi_inputs() + i]);
    for (int j = 0; j < nw_; ++j) q[j] = d[j];
  }
  run();
}

void ParallelSim::read_observes(std::vector<Word>& out) const {
  const auto& nets = model_->observe_nets();
  out.resize(nets.size() * static_cast<std::size_t>(nw_));
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Word* w = words(nets[i]);
    for (int j = 0; j < nw_; ++j) out[i * static_cast<std::size_t>(nw_) + j] = w[j];
  }
}

}  // namespace tpi
