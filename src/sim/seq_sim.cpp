#include "sim/seq_sim.hpp"

#include <cassert>

namespace tpi {

SequentialSim::SequentialSim(const Netlist& nl, int lane_words)
    : owned_model_(std::in_place, nl, SeqView::kApplication),
      model_(&*owned_model_),
      sim_(*model_, lane_words) {
  reset();
}

SequentialSim::SequentialSim(const CombModel& model, int lane_words)
    : model_(&model), sim_(*model_, lane_words) {
  assert(model.view() == SeqView::kApplication);
  reset();
}

void SequentialSim::reset() {
  state_.assign(model_->boundary_ffs().size() * static_cast<std::size_t>(sim_.lane_words()), 0);
}

void SequentialSim::step(const std::vector<Word>& pi_words, std::vector<Word>& po_words) {
  const std::size_t nw = static_cast<std::size_t>(sim_.lane_words());
  assert(pi_words.size() == model_->num_pi_inputs() * nw);
  assert(state_.size() == model_->boundary_ffs().size() * nw);
  const auto& inputs = model_->input_nets();
  for (std::size_t i = 0; i < model_->num_pi_inputs(); ++i) {
    Word* w = sim_.words(inputs[i]);
    for (std::size_t j = 0; j < nw; ++j) w[j] = pi_words[i * nw + j];
  }
  const std::size_t nff = model_->boundary_ffs().size();
  for (std::size_t i = 0; i < nff; ++i) {
    Word* w = sim_.words(inputs[model_->num_pi_inputs() + i]);
    for (std::size_t j = 0; j < nw; ++j) w[j] = state_[i * nw + j];
  }
  sim_.run();
  po_words.resize(model_->num_po_observes() * nw);
  const auto& observes = model_->observe_nets();
  for (std::size_t i = 0; i < model_->num_po_observes(); ++i) {
    const Word* w = sim_.words(observes[i]);
    for (std::size_t j = 0; j < nw; ++j) po_words[i * nw + j] = w[j];
  }
  // Next state: D values of the boundary flip-flops.
  for (std::size_t i = 0; i < nff; ++i) {
    const Word* w = sim_.words(observes[model_->num_po_observes() + i]);
    for (std::size_t j = 0; j < nw; ++j) state_[i * nw + j] = w[j];
  }
}

}  // namespace tpi
