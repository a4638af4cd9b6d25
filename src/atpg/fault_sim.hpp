// Event-driven, pattern-parallel fault simulation (stuck-at + transition).
//
// For each fault the simulator diverges a faulty-value overlay from the
// good-value state and propagates events in topological order through the
// fault's output cone only, comparing at observable nets. Two cone limits
// keep the hot loop tight: faults whose site cannot reach any observe net
// (CombModel::net_reaches_observe) are skipped outright, and events are
// never scheduled into nodes whose output lies outside every observe cone.
// Combined with fault dropping this is the workhorse of compact ATPG and
// LBIST: every batch of patterns is graded against all remaining faults
// through FaultSimBank::first_detections, and drop_first_detected removes
// each fault at its first detecting pattern. Callers resolve each live
// fault's FaultTask once (resolve_fault_tasks in atpg/fault.hpp, which
// PODEM and replay use too) and keep the tasks aligned with the live list;
// grading reads only the tasks and never resolves a fault itself.
//
// The hot loops live in the dispatched SIMD kernels (sim/kernels.hpp): a
// batch is lane_words() x 64 patterns wide, and each net visit grades all
// of them. The lane width is picked algorithmically by callers (1 for a
// 64-pattern batch, up to kMaxLaneWords = 8 for super-batches), never from
// CPU capability, so detection words are bit-identical across kernel
// backends.
//
// FaultSimBank partitions a fault list across workers (shared read-only
// CombModel and good state, per-worker faulty-value scratch) and merges
// detection results in fault-list order, so the outcome is bit-identical
// to the serial path at any worker count.
//
// Transition faults are graded over launch-on-capture pattern pairs loaded
// with load_batch_loc(), which builds them with
// ParallelSim::run_launch_capture (as replay does): the launch frame V1 is
// simulated, the capture frame holds the PIs and feeds each pseudo-input
// from the launch frame's captured D value, and the kernels grade the
// *capture* frame. The grading kernel owns the transition condition (the
// fault site held the launch value that makes the slow transition happen:
// launch 0 for slow-to-rise, launch 1 for slow-to-fall): it forces the
// stuck value only in the lanes that launch the fault, so the other lanes
// never propagate an effect. The detect words are the capture-frame
// stuck-at grade ANDed with that condition, bit for bit; a batch loaded
// without a launch frame detects no transition fault.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/kernels.hpp"
#include "sim/parallel_sim.hpp"

namespace tpi {

class ThreadPool;

/// Deterministic parallel fault grading: the live fault list is split into
/// one contiguous chunk per worker (chunk boundaries depend only on the
/// list length and the worker count, never on scheduling), each worker
/// grades its chunk in its own scratch, and the caller-visible merge
/// happens on the calling thread in fault-list order. Result: bit-identical
/// to the serial path for any `jobs`.
class FaultSimBank {
 public:
  /// jobs = 1 is serial (no pool); jobs <= 0 selects
  /// ThreadPool::default_concurrency().
  explicit FaultSimBank(const CombModel& model, int jobs = 1);
  ~FaultSimBank();

  FaultSimBank(const FaultSimBank&) = delete;
  FaultSimBank& operator=(const FaultSimBank&) = delete;

  int jobs() const { return static_cast<int>(workers_.size()); }
  /// The model every fault task must be resolved against.
  const CombModel& model() const { return *model_; }

  /// Words per net in the current batch layout (1..kMaxLaneWords).
  int lane_words() const { return good_.lane_words(); }
  /// Switch the batch width; resets the good state and drops the launch
  /// frame when it changes.
  void configure_lanes(int lane_words);

  /// Load + evaluate a batch of lane_words() x 64 patterns (words
  /// input-major, aligned with model.input_nets(): word
  /// input_words[i*lane_words() + j] is input i, lane word j). Every worker
  /// grades against this one good state.
  void load_batch(const std::vector<Word>& input_words);

  /// Launch-on-capture batch for transition faults
  /// (ParallelSim::run_launch_capture of `input_words`). The good state is
  /// then the capture frame; the launch frame's values are kept for the
  /// transition launch condition.
  void load_batch_loc(const std::vector<Word>& input_words);

  /// Good-circuit state of the loaded batch (the capture frame after
  /// load_batch_loc).
  const ParallelSim& good() const { return good_; }

  /// Grade every task (a fault resolved against the bank's model):
  /// detect[i*lane_words() + j] is task i's lane word j, bit k set iff
  /// pattern j*64+k shows an observable difference at a PO or pseudo-PO.
  void grade(const std::vector<FaultTask>& tasks, std::vector<Word>& detect);

  /// Grade every task and write first[i] = index of the first pattern
  /// among the batch's first `patterns` that detects tasks[i], or -1.
  /// Lanes at or past `patterns` (the all-zero fill of a partial batch)
  /// never count. Each worker streams its range through a fixed-size chunk
  /// of detect words, so no live-list-sized detect buffer is ever held.
  void first_detections(const std::vector<FaultTask>& tasks, std::size_t patterns,
                        std::vector<int>& first);

  /// Summed per-worker counters since the last call; resets the workers.
  FaultSimStats take_stats();

 private:
  struct Worker;
  /// Run body(worker, lo, hi) over the fixed partition of [0, n): one
  /// contiguous range per worker on the pool, or all of it on worker 0
  /// when serial or when n is too small to be worth the dispatch.
  template <class Body>
  void for_each_range(std::size_t n, const Body& body);

  const CombModel* model_;
  ParallelSim good_;
  /// V1 net values of a load_batch_loc batch; empty for any other batch.
  std::vector<Word> launch_values_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when jobs() == 1
};

/// Mark kDetected and remove from `live` and its aligned `tasks` (order
/// kept) every fault whose first detection first[i] lies in [0, limit).
/// Faults in other live states (kRedundant, kAborted) are dropped too:
/// simulation evidence overrides them.
void drop_first_detected(std::vector<Fault*>& live, std::vector<FaultTask>& tasks,
                         const std::vector<int>& first, std::size_t limit);

}  // namespace tpi
