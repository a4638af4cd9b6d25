// Width-templated kernel implementations, included once per backend TU.
//
// The including TU defines TPI_KERNELS_NS (e.g. simd_impl_avx512) and is
// compiled with that backend's ISA flags; everything here is plain NW-word
// uint64_t loops the compiler auto-vectorises to whatever the TU's flags
// allow. No intrinsics: the bit patterns produced are identical in every
// backend by construction, only the instruction selection differs.
//
// Semantics notes (bit-identity contracts):
//  * sweep/tern_sweep evaluate model.eval_ops() in order, honouring
//    copy_of; per-op results are computed into locals before the store, so
//    output aliasing behaves like the historical read-then-write loop.
//  * grade is strictly per task, and per 64-lane slice the detect bits
//    are what the historical 64-wide grader produced for that lane's
//    batch, for any NW. The event queue is a level-bucket
//    array instead of a binary heap — levelize guarantees readers sit at
//    strictly higher levels than their fanins, so ascending-level draining
//    is the same topological schedule with O(1) push/pop, and the set of
//    accepted events (and therefore the stats) is order-independent.
//  * forced replicates replay.cpp's forced_detect: a full sweep of the
//    real ops (structural dedup is unsound under injection).

#ifndef TPI_KERNELS_NS
#error "kernels_impl.hpp must be included with TPI_KERNELS_NS defined"
#endif

#include <cstddef>
#include <cstdint>

#include "sim/kernels.hpp"
#include "sim/ternary_planes.hpp"

namespace tpi {
namespace TPI_KERNELS_NS {

inline constexpr Word kZeroWords[kMaxLaneWords] = {};

/// Evaluate one op over NW-word operands. `out` may alias any operand:
/// results are accumulated in locals and stored last. Zero-input ops
/// produce all-zero words (they carry no function; real netlists connect
/// every logic pin).
template <int NW>
inline void eval_op_wide(const EvalOp& op, const Word* const* in, const Word* sel, Word* out) {
  Word acc[NW];
  if (op.num_inputs == 0) {
    for (int j = 0; j < NW; ++j) out[j] = 0;
    return;
  }
  switch (op.func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:  // transparent in application mode
      for (int j = 0; j < NW; ++j) acc[j] = in[0][j];
      break;
    case CellFunc::kInv:
      for (int j = 0; j < NW; ++j) acc[j] = ~in[0][j];
      break;
    case CellFunc::kAnd:
    case CellFunc::kNand:
      for (int j = 0; j < NW; ++j) acc[j] = in[0][j];
      for (int i = 1; i < op.num_inputs; ++i) {
        for (int j = 0; j < NW; ++j) acc[j] &= in[i][j];
      }
      if (op.func == CellFunc::kNand) {
        for (int j = 0; j < NW; ++j) acc[j] = ~acc[j];
      }
      break;
    case CellFunc::kOr:
    case CellFunc::kNor:
      for (int j = 0; j < NW; ++j) acc[j] = in[0][j];
      for (int i = 1; i < op.num_inputs; ++i) {
        for (int j = 0; j < NW; ++j) acc[j] |= in[i][j];
      }
      if (op.func == CellFunc::kNor) {
        for (int j = 0; j < NW; ++j) acc[j] = ~acc[j];
      }
      break;
    case CellFunc::kXor:
    case CellFunc::kXnor:
      for (int j = 0; j < NW; ++j) acc[j] = in[0][j];
      for (int i = 1; i < op.num_inputs; ++i) {
        for (int j = 0; j < NW; ++j) acc[j] ^= in[i][j];
      }
      if (op.func == CellFunc::kXnor) {
        for (int j = 0; j < NW; ++j) acc[j] = ~acc[j];
      }
      break;
    case CellFunc::kMux2:
      for (int j = 0; j < NW; ++j) acc[j] = (in[0][j] & ~sel[j]) | (in[1][j] & sel[j]);
      break;
    default:
      for (int j = 0; j < NW; ++j) acc[j] = 0;
      break;
  }
  for (int j = 0; j < NW; ++j) out[j] = acc[j];
}

template <int NW>
void sweep_impl(const CombModel& model, Word* v) {
  for (const EvalOp& op : model.eval_ops()) {
    if (op.out == kNoNet) continue;
    Word* out = v + static_cast<std::size_t>(op.out) * NW;
    if (op.copy_of != kNoNet) {
      const Word* src = v + static_cast<std::size_t>(op.copy_of) * NW;
      for (int j = 0; j < NW; ++j) out[j] = src[j];
      continue;
    }
    const Word* in[4];
    for (int i = 0; i < op.num_inputs; ++i) {
      in[i] = v + static_cast<std::size_t>(op.in[i]) * NW;
    }
    const Word* sel =
        op.sel != kNoNet ? v + static_cast<std::size_t>(op.sel) * NW : kZeroWords;
    eval_op_wide<NW>(op, in, sel, out);
  }
}

// Always kMaxLaneWords wide: the equivalence checker's ternary pass is its
// only caller.
void tern_sweep_entry(const CombModel& model, Word* p, Word* q) {
  using Enc = EncVC;
  constexpr int NW = kMaxLaneWords;
  for (const EvalOp& op : model.eval_ops()) {
    if (op.out == kNoNet) continue;
    const std::size_t ob = static_cast<std::size_t>(op.out) * NW;
    if (op.copy_of != kNoNet) {
      const std::size_t sb = static_cast<std::size_t>(op.copy_of) * NW;
      for (int j = 0; j < NW; ++j) {
        p[ob + j] = p[sb + j];
        q[ob + j] = q[sb + j];
      }
      continue;
    }
    if (op.num_inputs == 0) {
      for (int j = 0; j < NW; ++j) Enc::x(p[ob + j], q[ob + j]);
      continue;
    }
    for (int j = 0; j < NW; ++j) {
      Word inp[4];
      Word inq[4];
      for (int i = 0; i < op.num_inputs; ++i) {
        const std::size_t b = static_cast<std::size_t>(op.in[i]) * NW + static_cast<std::size_t>(j);
        inp[i] = p[b];
        inq[i] = q[b];
      }
      Word sp;
      Word sq;
      if (op.sel != kNoNet) {
        const std::size_t b = static_cast<std::size_t>(op.sel) * NW + static_cast<std::size_t>(j);
        sp = p[b];
        sq = q[b];
      } else {
        Enc::zero(sp, sq);  // matches eval_node_word's implicit select = 0
      }
      Word rp;
      Word rq;
      eval_node_planes<Enc>(op.func, op.num_inputs, inp, inq, sp, sq, rp, rq);
      p[ob + j] = rp;
      q[ob + j] = rq;
    }
  }
}

template <int NW>
void grade_one(const CombModel& model, FaultScratch& sc, const Word* good, const FaultTask& task,
               Word* detect, FaultSimStats& stats) {
  for (int j = 0; j < NW; ++j) detect[j] = 0;
  ++stats.faults_graded;
  if (!model.net_reaches_observe(task.net)) {
    ++stats.cone_skips;
    return;
  }
  ++sc.epoch;
  const std::uint32_t epoch = sc.epoch;
  const auto& nodes = model.nodes();
  const auto& ops = model.eval_ops();
  Word* fval = sc.fval.data();

  const Word stuck = task.stuck1 ? ~Word{0} : Word{0};
  Word stuck_arr[NW];
  for (int j = 0; j < NW; ++j) stuck_arr[j] = stuck;

  const Word* g = good + static_cast<std::size_t>(task.net) * NW;
  Word act = 0;
  for (int j = 0; j < NW; ++j) act |= g[j] ^ stuck;
  if (act == 0) return;  // no lane of any slice activates the fault

  const auto faulty = [&](NetId net) -> const Word* {
    const auto i = static_cast<std::size_t>(net);
    return sc.stamp[i] == epoch ? fval + i * NW : good + i * NW;
  };
  const auto set_faulty = [&](NetId net, const Word* w) {
    const auto i = static_cast<std::size_t>(net);
    for (int j = 0; j < NW; ++j) fval[i * NW + j] = w[j];
    sc.stamp[i] = epoch;
  };

  int min_lv = 0;
  int max_lv = -1;
  const auto schedule = [&](int ni) {
    const auto i = static_cast<std::size_t>(ni);
    if (sc.queued[i] == epoch) return;
    sc.queued[i] = epoch;
    ++stats.events;
    const int lv = nodes[i].level;
    if (max_lv < 0 || lv < min_lv) min_lv = lv;
    if (lv > max_lv) max_lv = lv;
    sc.buckets[static_cast<std::size_t>(lv)].push_back(ni);
  };
  const auto schedule_readers = [&](NetId net) {
    for (const int reader : model.readers_of(net)) {
      // Cone limit: never propagate into logic no observe point can see.
      const NetId out = nodes[static_cast<std::size_t>(reader)].out;
      if (out != kNoNet && !model.net_reaches_observe(out)) continue;
      schedule(reader);
    }
  };

  if (task.is_stem()) {
    set_faulty(task.net, stuck_arr);
    if (model.is_observe_net(task.net)) {
      for (int j = 0; j < NW; ++j) detect[j] |= g[j] ^ stuck;
    }
    schedule_readers(task.net);
  } else if (task.direct_capture) {
    // FF D-pin branch with no logic reader: captured directly.
    for (int j = 0; j < NW; ++j) detect[j] = g[j] ^ stuck;
    return;
  } else if (task.dead_branch) {
    return;  // branch with no logic reader, not a D pin
  } else {
    // Evaluate the branch reader with the forced input value.
    const EvalOp& op = ops[static_cast<std::size_t>(task.branch_reader)];
    if (op.out != kNoNet && !model.net_reaches_observe(op.out)) {
      // The branch cone is dead even though the stem has live siblings.
      ++stats.cone_skips;
      return;
    }
    const Word* in[4];
    for (int i = 0; i < op.num_inputs; ++i) {
      in[i] = op.in[i] == task.net ? stuck_arr : good + static_cast<std::size_t>(op.in[i]) * NW;
    }
    const Word* sel = kZeroWords;
    if (op.sel != kNoNet) {
      sel = op.sel == task.net ? stuck_arr : good + static_cast<std::size_t>(op.sel) * NW;
    }
    ++stats.node_evals;
    Word out[NW];
    eval_op_wide<NW>(op, in, sel, out);
    if (op.out == kNoNet) return;
    const Word* gout = good + static_cast<std::size_t>(op.out) * NW;
    Word change = 0;
    for (int j = 0; j < NW; ++j) change |= out[j] ^ gout[j];
    if (change == 0) return;
    set_faulty(op.out, out);
    if (model.is_observe_net(op.out)) {
      for (int j = 0; j < NW; ++j) detect[j] |= out[j] ^ gout[j];
    }
    schedule_readers(op.out);
  }

  // Event-driven propagation: drain buckets in ascending level order.
  // Scheduling only ever targets strictly higher levels, so each bucket is
  // complete when reached and max_lv can only grow.
  for (int lv = min_lv; lv <= max_lv; ++lv) {
    auto& bucket = sc.buckets[static_cast<std::size_t>(lv)];
    for (std::size_t h = 0; h < bucket.size(); ++h) {
      const int ni = bucket[h];
      const EvalOp& op = ops[static_cast<std::size_t>(ni)];
      if (op.out == kNoNet) continue;
      // The branch-fault injection must persist if the reader re-evaluates.
      const bool inject = ni == task.branch_reader;
      const Word* in[4];
      for (int i = 0; i < op.num_inputs; ++i) {
        in[i] = (inject && op.in[i] == task.net) ? stuck_arr : faulty(op.in[i]);
      }
      const Word* sel = kZeroWords;
      if (op.sel != kNoNet) {
        sel = (inject && op.sel == task.net) ? stuck_arr : faulty(op.sel);
      }
      ++stats.node_evals;
      Word out[NW];
      eval_op_wide<NW>(op, in, sel, out);
      const Word* cur = faulty(op.out);
      Word change = 0;
      for (int j = 0; j < NW; ++j) change |= out[j] ^ cur[j];
      if (change == 0) continue;  // no change, nothing to propagate
      set_faulty(op.out, out);
      const Word* gout = good + static_cast<std::size_t>(op.out) * NW;
      Word diff[NW];
      Word any = 0;
      for (int j = 0; j < NW; ++j) {
        diff[j] = out[j] ^ gout[j];
        any |= diff[j];
      }
      if (any != 0 && model.is_observe_net(op.out)) {
        for (int j = 0; j < NW; ++j) detect[j] |= diff[j];
      }
      schedule_readers(op.out);
    }
    bucket.clear();
  }
}

template <int NW>
void grade_impl(const CombModel& model, FaultScratch& sc, const Word* good,
                const FaultTask* tasks, std::size_t count, Word* detect, FaultSimStats& stats) {
  for (std::size_t i = 0; i < count; ++i) {
    grade_one<NW>(model, sc, good, tasks[i], detect + i * NW, stats);
  }
}

template <int NW>
void forced_impl(const CombModel& model, const Word* good, Word* faulty, const FaultTask& task,
                 Word* detect) {
  for (int j = 0; j < NW; ++j) detect[j] = 0;
  const Word stuck = task.stuck1 ? ~Word{0} : Word{0};
  const Word* g = good + static_cast<std::size_t>(task.net) * NW;
  Word act = 0;
  for (int j = 0; j < NW; ++j) act |= g[j] ^ stuck;
  if (act == 0) return;  // no pattern in the batch activates the fault
  if (task.direct_capture) {
    for (int j = 0; j < NW; ++j) detect[j] = g[j] ^ stuck;
    return;
  }
  if (task.dead_branch) return;

  const std::size_t total = model.num_nets() * static_cast<std::size_t>(NW);
  for (std::size_t i = 0; i < total; ++i) faulty[i] = good[i];
  Word stuck_arr[NW];
  for (int j = 0; j < NW; ++j) stuck_arr[j] = stuck;
  const bool stem = task.is_stem();
  if (stem) {
    for (int j = 0; j < NW; ++j) faulty[static_cast<std::size_t>(task.net) * NW + j] = stuck;
  }

  const auto& ops = model.eval_ops();
  for (std::size_t ni = 0; ni < ops.size(); ++ni) {
    const EvalOp& op = ops[ni];
    const bool inject = static_cast<int>(ni) == task.branch_reader;
    const Word* in[4];
    for (int i = 0; i < op.num_inputs; ++i) {
      in[i] = (inject && op.in[i] == task.net)
                  ? stuck_arr
                  : faulty + static_cast<std::size_t>(op.in[i]) * NW;
    }
    const Word* sel = kZeroWords;
    if (op.sel != kNoNet) {
      sel = (inject && op.sel == task.net) ? stuck_arr
                                           : faulty + static_cast<std::size_t>(op.sel) * NW;
    }
    if (op.out == kNoNet) continue;
    Word* out = faulty + static_cast<std::size_t>(op.out) * NW;
    eval_op_wide<NW>(op, in, sel, out);
    if (stem && op.out == task.net) {
      for (int j = 0; j < NW; ++j) out[j] = stuck;  // fault wins at the site
    }
  }

  for (const NetId n : model.observe_nets()) {
    const std::size_t b = static_cast<std::size_t>(n) * NW;
    for (int j = 0; j < NW; ++j) detect[j] |= faulty[b + j] ^ good[b + j];
  }
}

// nw-dispatch wrappers: nw is always a power of two in [1, kMaxLaneWords].

void sweep_entry(const CombModel& model, Word* values, int nw) {
  switch (nw) {
    case 1:
      sweep_impl<1>(model, values);
      return;
    case 2:
      sweep_impl<2>(model, values);
      return;
    case 4:
      sweep_impl<4>(model, values);
      return;
    default:
      sweep_impl<8>(model, values);
      return;
  }
}

void grade_entry(const CombModel& model, FaultScratch& scratch, const Word* good,
                 const FaultTask* tasks, std::size_t count, Word* detect, FaultSimStats& stats) {
  switch (scratch.nw) {
    case 1:
      grade_impl<1>(model, scratch, good, tasks, count, detect, stats);
      return;
    case 2:
      grade_impl<2>(model, scratch, good, tasks, count, detect, stats);
      return;
    case 4:
      grade_impl<4>(model, scratch, good, tasks, count, detect, stats);
      return;
    default:
      grade_impl<8>(model, scratch, good, tasks, count, detect, stats);
      return;
  }
}

void forced_entry(const CombModel& model, const Word* good, Word* faulty, const FaultTask& task,
                  Word* detect, int nw) {
  switch (nw) {
    case 1:
      forced_impl<1>(model, good, faulty, task, detect);
      return;
    case 2:
      forced_impl<2>(model, good, faulty, task, detect);
      return;
    case 4:
      forced_impl<4>(model, good, faulty, task, detect);
      return;
    default:
      forced_impl<8>(model, good, faulty, task, detect);
      return;
  }
}

inline const SimKernels& kernels() {
  static const SimKernels k{&sweep_entry, &tern_sweep_entry, &grade_entry, &forced_entry};
  return k;
}

}  // namespace TPI_KERNELS_NS
}  // namespace tpi
