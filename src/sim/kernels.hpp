// Backend-dispatched simulation kernels.
//
// The four hot loops of the simulation substrate — good-value sweep,
// event-driven per-fault grading, forced replay resimulation and the
// two-plane ternary sweep — are implemented once as NW-word uint64_t loop
// templates (kernels_impl.hpp, NW in {1,2,4,8}) and compiled per backend
// (kernels_scalar/avx512.cpp, see simd.hpp). All of them operate on
// net-major word arrays: net n's lanes live at words [n*nw, n*nw+nw).
//
// Correctness never depends on the backend: every entry point computes the
// same bits for the same (model, inputs, nw); the backends differ only in
// the ISA the compiler vectorises the word loops to.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/comb_model.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/simd.hpp"

namespace tpi {

/// Event counters accumulated by fault grading; ATPG and LBIST publish
/// them as the atpg.sim.* / lbist.sim.* metrics. Totals are independent of the worker count because
/// each fault is graded exactly once (they do depend on the logical batch
/// width, which is fixed algorithmically — see simd.hpp).
struct FaultSimStats {
  std::uint64_t faults_graded = 0;  ///< faults graded
  std::uint64_t cone_skips = 0;     ///< faults cut by the observability mask
  std::uint64_t node_evals = 0;     ///< nodes evaluated during propagation
  std::uint64_t events = 0;         ///< scheduler pushes accepted

  FaultSimStats& operator+=(const FaultSimStats& o) {
    faults_graded += o.faults_graded;
    cone_skips += o.cone_skips;
    node_evals += o.node_evals;
    events += o.events;
    return *this;
  }
};

/// One fault, resolved against the model for the kernels: the site net,
/// the polarity, and how the faulty value enters the logic (everywhere for
/// a stem; at one reading node for a branch; directly into a flip-flop for
/// a D-pin branch with no logic reader).
struct FaultTask {
  NetId net = kNoNet;
  int branch_reader = -1;  ///< node index seeing the stuck value; -1 = stem
  bool stuck1 = false;
  bool direct_capture = false;  ///< branch on an FF D pin (no logic reader)
  bool dead_branch = false;     ///< branch with no logic reader, not a D pin
  /// Transition fault under launch-on-capture: `grade` forces the stuck
  /// value only in the lanes whose launch frame held the transition's
  /// initial value at the site (1 for slow-to-fall, 0 for slow-to-rise).
  /// `forced` ignores it and acts as stuck-at on the frame it is given.
  bool transition = false;

  bool is_stem() const { return branch_reader < 0 && !direct_capture && !dead_branch; }
};

/// Per-simulator scratch for the grading kernel: the faulty-value overlay
/// (epoch-stamped, so activating a new fault is O(1)) and the level-bucket
/// event queue that replaces a binary heap — levelize guarantees every
/// reader sits at a strictly higher level than its fanins, so draining
/// buckets in ascending level order is a valid topological schedule and
/// push/pop are O(1).
struct FaultScratch {
  std::vector<Word> fval;              ///< nets * nw faulty words
  std::vector<std::uint32_t> stamp;    ///< per net: epoch of last fval write
  std::vector<std::uint32_t> queued;   ///< per node: epoch when scheduled
  std::vector<std::vector<std::int32_t>> buckets;  ///< per level: pending nodes
  std::uint32_t epoch = 0;
  int nw = 1;

  void prepare(const CombModel& model, int lane_words) {
    nw = lane_words;
    fval.assign(model.num_nets() * static_cast<std::size_t>(nw), 0);
    if (stamp.size() != model.num_nets()) stamp.assign(model.num_nets(), 0);
    if (queued.size() != model.nodes().size()) queued.assign(model.nodes().size(), 0);
    if (buckets.size() < static_cast<std::size_t>(model.max_level()) + 1) {
      buckets.resize(static_cast<std::size_t>(model.max_level()) + 1);
    }
  }
};

/// One backend's kernel entry points. `nw` must be 1, 2, 4 or 8
/// (kMaxLaneWords); arrays are net-major with stride nw (kMaxLaneWords for
/// tern_sweep).
struct SimKernels {
  /// Full-sweep good-value evaluation of model.eval_ops() (honours
  /// copy_of dedup) over `values` (num_nets * nw words).
  void (*sweep)(const CombModel& model, Word* values, int nw);
  /// Full-sweep two-plane ternary evaluation (value/care planes, EncVC;
  /// honours copy_of) over plane arrays p/q (num_nets * kMaxLaneWords
  /// words each).
  void (*tern_sweep)(const CombModel& model, Word* p, Word* q);
  /// Event-driven grading of `count` faults against the good state:
  /// detect[i*scratch.nw + j] accumulates per-lane observable differences
  /// for tasks[i]. `launch` holds the launch frame's net values (same
  /// layout as `good`, the capture frame) or is null; a transition task
  /// acts only in the lanes that launch it, and with a null `launch` it
  /// detects nothing. Stuck-at tasks never read `launch`. Counters
  /// accumulate into `stats` (one faults_graded per task, cone_skips for
  /// tasks outside every observe cone).
  void (*grade)(const CombModel& model, FaultScratch& scratch, const Word* good,
                const Word* launch, const FaultTask* tasks, std::size_t count, Word* detect,
                FaultSimStats& stats);
  /// Forced full-sweep resimulation of one fault (replay validation):
  /// evaluates every node with its real op (dedup does not apply under
  /// injection), writes num_nets*nw words into `faulty` and the observable
  /// difference into detect[0..nw).
  void (*forced)(const CombModel& model, const Word* good, Word* faulty, const FaultTask& task,
                 Word* detect, int nw);
};

/// Kernels of the process's backend (simd_backend()).
const SimKernels& sim_kernels();

// Per-backend tables (defined in kernels_<backend>.cpp). Only sim_kernels()
// and the parity test choose between them.
const SimKernels& sim_kernels_scalar();
#ifdef TPI_HAVE_KERNELS_AVX512
const SimKernels& sim_kernels_avx512();
#endif

}  // namespace tpi
