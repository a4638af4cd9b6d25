#include "verify/replay.hpp"

#include <algorithm>

#include "atpg/fault_sim.hpp"
#include "sim/kernels.hpp"
#include "sim/parallel_sim.hpp"

namespace tpi {
namespace {

// Valid-lane mask for lane word j of a batch holding `count` patterns.
Word lane_mask(std::size_t count, int j) {
  const std::size_t base = static_cast<std::size_t>(j) * kWordBits;
  if (count <= base) return 0;
  const std::size_t lanes = count - base;
  return lanes >= static_cast<std::size_t>(kWordBits) ? ~Word{0} : (Word{1} << lanes) - 1;
}

}  // namespace

ReplayReport replay_patterns(const CombModel& capture_model, const FaultList& faults,
                             const std::vector<TestPattern>& patterns) {
  ReplayReport report;
  report.patterns = static_cast<std::int64_t>(patterns.size());

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < faults.faults.size(); ++i) {
    if (faults.faults[i].status == FaultStatus::kDetected) pending.push_back(i);
  }
  report.claimed = static_cast<std::int64_t>(pending.size());
  if (pending.empty()) return report;

  const std::size_t num_inputs = capture_model.input_nets().size();
  // Transition claims are replayed over the same launch-on-capture frame
  // pair the ATPG graded: the pattern is the launch frame, the capture
  // frame holds the PIs and feeds pseudo-inputs from the launch frame's
  // captured D values, the forced resimulation runs on the capture frame,
  // and a claim only confirms in lanes where the site held the
  // transition's initial value at launch.
  const bool transition = !faults.faults.empty() &&
                          faults.faults.front().model == FaultModel::kTransition;
  ParallelSim good(capture_model);
  std::vector<Word> input_words;
  std::vector<Word> launch_values;
  std::vector<Word> capture_inputs;
  // Forced resimulation is a full sweep per (fault, batch): super-batching
  // up to kMaxLaneWords x 64 patterns per sweep divides the sweep count by
  // the lane width. The confirmation for each claim is an OR over applied
  // lanes, so the grouping cannot change the verdict — semantics match
  // FaultSimBank::grade: a stem forces the site net everywhere; a
  // branch forces it only at the one reading node of the faulted cell; a
  // branch on a flip-flop D pin (no logic reader) is captured directly
  // whenever the good value differs.
  std::vector<Word> faulty_scratch(capture_model.num_nets() *
                                   static_cast<std::size_t>(kMaxLaneWords));
  const SimKernels& kernels = sim_kernels();

  std::size_t base = 0;
  while (base < patterns.size() && !pending.empty()) {
    const std::size_t remaining = patterns.size() - base;
    const std::size_t remaining_words = (remaining + kWordBits - 1) / kWordBits;
    const int nw = super_batch_words(static_cast<std::int64_t>(remaining_words));
    const std::size_t batch = std::min<std::size_t>(static_cast<std::size_t>(nw) * kWordBits,
                                                    remaining);
    // Lanes past the pattern count hold an all-zero phantom input vector;
    // a detection there must not confirm a claim.
    good.configure_lanes(nw);
    input_words.assign(num_inputs * static_cast<std::size_t>(nw), 0);
    for (std::size_t k = 0; k < batch; ++k) {
      const auto& bits = patterns[base + k].bits;
      const std::size_t j = k / kWordBits;
      const int bit = static_cast<int>(k % kWordBits);
      for (std::size_t i = 0; i < num_inputs && i < bits.size(); ++i) {
        if (bits[i] != 0) {
          input_words[i * static_cast<std::size_t>(nw) + j] |= Word{1} << bit;
        }
      }
    }
    good.load_inputs(input_words);
    good.run();
    if (transition) {
      launch_values = good.values();  // V1 frame, net-major
      capture_inputs = input_words;   // PIs held across both cycles
      const std::size_t nff = capture_model.boundary_ffs().size();
      const std::size_t snw = static_cast<std::size_t>(nw);
      for (std::size_t i = 0; i < nff; ++i) {
        const NetId d =
            capture_model.observe_nets()[capture_model.num_po_observes() + i];
        const Word* src = launch_values.data() + static_cast<std::size_t>(d) * snw;
        for (std::size_t j = 0; j < snw; ++j) {
          capture_inputs[(capture_model.num_pi_inputs() + i) * snw + j] = src[j];
        }
      }
      good.load_inputs(capture_inputs);
      good.run();
    }

    std::size_t w = 0;
    for (const std::size_t fi : pending) {
      const Fault& fault = faults.faults[fi];
      const FaultTask task = resolve_fault_task(capture_model, fault);
      Word detect[kMaxLaneWords];
      kernels.forced(capture_model, good.values().data(), faulty_scratch.data(), task, detect, nw);
      Word any = 0;
      for (int j = 0; j < nw; ++j) {
        Word d = detect[j] & lane_mask(batch, j);
        if (transition) {
          const Word launch =
              launch_values[static_cast<std::size_t>(fault.net) *
                                static_cast<std::size_t>(nw) +
                            static_cast<std::size_t>(j)];
          d &= fault.stuck1 ? launch : ~launch;
        }
        any |= d;
      }
      if (any != 0) continue;  // confirmed
      pending[w++] = fi;
    }
    pending.resize(w);
    base += batch;
  }

  report.confirmed = report.claimed - static_cast<std::int64_t>(pending.size());
  for (const std::size_t fi : pending) {
    const Fault& f = faults.faults[fi];
    report.failures.push_back({fi, f.net, f.stuck1, f.is_stem()});
  }
  return report;
}

}  // namespace tpi
