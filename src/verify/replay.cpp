#include "verify/replay.hpp"

#include <algorithm>

#include "atpg/fault.hpp"
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

  // Each claim is resolved once (resolve_fault_task, the same site the
  // ATPG graded) and its task kept aligned with `pending`.
  std::vector<std::size_t> pending;
  std::vector<FaultTask> tasks;
  for (std::size_t i = 0; i < faults.faults.size(); ++i) {
    const Fault& f = faults.faults[i];
    if (f.status != FaultStatus::kDetected) continue;
    pending.push_back(i);
    tasks.push_back(resolve_fault_task(capture_model, f));
  }
  report.claimed = static_cast<std::int64_t>(pending.size());
  if (pending.empty()) return report;

  const std::size_t num_inputs = capture_model.input_nets().size();
  // Transition claims are replayed over the same launch-on-capture frame
  // pair the ATPG graded (ParallelSim::run_launch_capture): the forced
  // resimulation runs on the capture frame, and a claim only confirms in
  // lanes where the site held the transition's initial value at launch.
  const bool transition = !faults.faults.empty() &&
                          faults.faults.front().model == FaultModel::kTransition;
  ParallelSim good(capture_model);
  std::vector<Word> input_words;
  std::vector<Word> launch;
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
    pack_patterns(patterns.data() + base, batch, num_inputs, nw, input_words);
    if (transition) {
      good.run_launch_capture(input_words, launch);
    } else {
      good.load_inputs(input_words);
      good.run();
    }

    std::size_t w = 0;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      const FaultTask& task = tasks[p];
      Word detect[kMaxLaneWords];
      kernels.forced(capture_model, good.values().data(), faulty_scratch.data(), task, detect, nw);
      if (transition) {
        const Word* site = launch.data() + static_cast<std::size_t>(task.net) * nw;
        for (int j = 0; j < nw; ++j) detect[j] &= task.stuck1 ? site[j] : ~site[j];
      }
      Word any = 0;
      for (int j = 0; j < nw; ++j) any |= detect[j] & lane_mask(batch, j);
      if (any != 0) continue;  // confirmed
      pending[w] = pending[p];
      tasks[w++] = task;
    }
    pending.resize(w);
    tasks.resize(w);
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
