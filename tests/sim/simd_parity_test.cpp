// Kernel-table parity. A backend enters the simulation only through its
// SimKernels table, so the scalar and AVX-512 tables must compute the same
// bits at each of the four entry points — sweep, tern_sweep, grade (detect
// words and FaultSimStats) and forced — for the same model, inputs and
// lane width. The logical lane count is fixed algorithmically, so any
// divergence is a kernel codegen bug, not a tolerance question. The
// cross-table tests skip when this build or CPU has no AVX-512; the width
// checks run on every table the host can execute.
//
// The models are the capture and application views of two tiny generated
// circuits and of a small s38417 after tpi_scan, floorplan_place and eco
// at 5 % TP; the tasks are their stuck-at and transition fault lists.
// KernelCasesCoverEveryOpAndTaskKind checks that this set reaches dedup
// copies, MUX2, XOR and TSFF ops and stem, branch, direct-capture and
// dead-branch tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "sim/kernels.hpp"
#include "sim/simd.hpp"
#include "sim/ternary_planes.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

constexpr int kWidths[] = {1, 2, 4, 8};

/// The AVX-512 table, or nullptr when this build or CPU cannot run it.
const SimKernels* avx512_kernels() {
#ifdef TPI_HAVE_KERNELS_AVX512
  if (simd_backend_available(SimdBackend::kAvx512)) return &sim_kernels_avx512();
#endif
  return nullptr;
}

/// Every kernel table the running CPU can execute, scalar first.
std::vector<const SimKernels*> runnable_kernels() {
  std::vector<const SimKernels*> v{&sim_kernels_scalar()};
  if (const SimKernels* avx = avx512_kernels()) v.push_back(avx);
  return v;
}

/// One model and the fault tasks resolved against it.
struct KernelCase {
  std::string label;
  std::shared_ptr<const Netlist> netlist;
  std::unique_ptr<const CombModel> model;
  std::vector<FaultTask> tasks;  ///< stuck-at list, then transition list
};

std::vector<FaultTask> stuck_at_and_transition_tasks(const CombModel& model) {
  std::vector<FaultTask> tasks;
  for (const FaultModel fm : {FaultModel::kStuckAt, FaultModel::kTransition}) {
    FaultList fl = build_fault_list(model, fm);
    std::vector<Fault*> faults;
    for (Fault& f : fl.faults) faults.push_back(&f);
    const std::vector<FaultTask> t = resolve_fault_tasks(model, faults);
    tasks.insert(tasks.end(), t.begin(), t.end());
  }
  return tasks;
}

/// Built once per process: the flowed paper circuit is the costly part.
const std::vector<KernelCase>& kernel_cases() {
  static const std::vector<KernelCase> cases = [] {
    std::vector<std::pair<std::string, std::shared_ptr<const Netlist>>> designs;
    for (const std::uint64_t seed : {31u, 44u}) {
      designs.emplace_back("tiny" + std::to_string(seed),
                           generate_circuit(lib(), test::tiny_profile(seed)));
    }
    const CircuitProfile profile = scaled(s38417_profile(), 0.05);
    std::shared_ptr<Netlist> flowed = generate_circuit(lib(), profile);
    FlowOptions opts;
    opts.tp_percent = 5.0;
    FlowEngine engine(*flowed, profile, opts);
    for (const Stage s : {Stage::kTpiScan, Stage::kFloorplanPlace, Stage::kEco}) {
      EXPECT_TRUE(engine.run_stage(s)) << stage_name(s);
    }
    designs.emplace_back(profile.name + " 5% TP", flowed);

    std::vector<KernelCase> out;
    for (const auto& [name, nl] : designs) {
      for (const SeqView view : {SeqView::kCapture, SeqView::kApplication}) {
        KernelCase c;
        c.label = name + (view == SeqView::kCapture ? " capture" : " application");
        c.netlist = nl;
        c.model = std::make_unique<const CombModel>(*nl, view);
        c.tasks = stuck_at_and_transition_tasks(*c.model);
        out.push_back(std::move(c));
      }
    }
    return out;
  }();
  return cases;
}

/// Net-major values at lane width nw: constant-1 nets all ones, input
/// nets random, every other net zero (what ParallelSim hands the sweep).
std::vector<Word> input_state(const CombModel& model, int nw, std::uint64_t seed) {
  const std::size_t w = static_cast<std::size_t>(nw);
  std::vector<Word> v(model.num_nets() * w, 0);
  for (const NetId n : model.const1_nets()) {
    std::fill_n(v.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(n) * w), w,
                ~Word{0});
  }
  Rng rng(seed);
  for (const NetId n : model.input_nets()) {
    for (std::size_t j = 0; j < w; ++j) v[static_cast<std::size_t>(n) * w + j] = rng.next_u64();
  }
  return v;
}

/// Words [first, first + count) of every net of a net-major array of
/// stride nw, as an array of stride count.
std::vector<Word> take_words(const std::vector<Word>& v, int nw, int first, int count) {
  const std::size_t nets = v.size() / static_cast<std::size_t>(nw);
  std::vector<Word> out(nets * static_cast<std::size_t>(count));
  for (std::size_t n = 0; n < nets; ++n) {
    for (int j = 0; j < count; ++j) {
      out[n * static_cast<std::size_t>(count) + static_cast<std::size_t>(j)] =
          v[n * static_cast<std::size_t>(nw) + static_cast<std::size_t>(first + j)];
    }
  }
  return out;
}

std::vector<Word> swept(const SimKernels& k, const CombModel& model, std::vector<Word> v,
                        int nw) {
  k.sweep(model, v.data(), nw);
  return v;
}

struct Grades {
  std::vector<Word> detect;
  FaultSimStats stats;
};

Grades graded(const SimKernels& k, const CombModel& model, const std::vector<Word>& good,
              const std::vector<FaultTask>& tasks, int nw) {
  FaultScratch scratch;
  scratch.prepare(model, nw);
  Grades g;
  g.detect.assign(tasks.size() * static_cast<std::size_t>(nw), 0);
  k.grade(model, scratch, good.data(), tasks.data(), tasks.size(), g.detect.data(), g.stats);
  return g;
}

enum class TaskKind { kStem, kBranch, kDirectCapture, kDeadBranch };

TaskKind kind_of(const FaultTask& t) {
  if (t.direct_capture) return TaskKind::kDirectCapture;
  if (t.dead_branch) return TaskKind::kDeadBranch;
  return t.branch_reader < 0 ? TaskKind::kStem : TaskKind::kBranch;
}

/// Tasks replayed through `forced` (a full sweep each): the first task of
/// every kind and about 48 more spread over the list.
std::vector<std::size_t> forced_sample(const std::vector<FaultTask>& tasks) {
  std::vector<std::size_t> pick;
  bool seen[4] = {};
  const std::size_t stride = std::max<std::size_t>(1, tasks.size() / 48);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    bool& first = seen[static_cast<int>(kind_of(tasks[i]))];
    if (!first || i % stride == 0) pick.push_back(i);
    first = true;
  }
  return pick;
}

TEST(SimdParityTest, DispatchFollowsTheCpu) {
  EXPECT_TRUE(simd_backend_available(SimdBackend::kScalar));
  const bool avx = avx512_kernels() != nullptr;
  EXPECT_EQ(simd_backend(), avx ? SimdBackend::kAvx512 : SimdBackend::kScalar);
  EXPECT_EQ(simd_lane_bits(), avx ? 512 : 64);
  EXPECT_EQ(&sim_kernels(), avx ? avx512_kernels() : &sim_kernels_scalar());
}

TEST(SimdParityTest, KernelCasesCoverEveryOpAndTaskKind) {
  std::size_t copies = 0, mux2 = 0, xors = 0, tsff = 0;
  std::size_t kinds[4] = {};
  for (const KernelCase& c : kernel_cases()) {
    for (const EvalOp& op : c.model->eval_ops()) {
      copies += op.copy_of != kNoNet;
      mux2 += op.func == CellFunc::kMux2;
      xors += op.func == CellFunc::kXor || op.func == CellFunc::kXnor;
      tsff += op.func == CellFunc::kTsff;
    }
    for (const FaultTask& t : c.tasks) ++kinds[static_cast<int>(kind_of(t))];
  }
  EXPECT_GT(copies, 0u);
  EXPECT_GT(mux2, 0u);
  EXPECT_GT(xors, 0u);
  EXPECT_GT(tsff, 0u);
  EXPECT_GT(kinds[static_cast<int>(TaskKind::kStem)], 0u);
  EXPECT_GT(kinds[static_cast<int>(TaskKind::kBranch)], 0u);
  EXPECT_GT(kinds[static_cast<int>(TaskKind::kDirectCapture)], 0u);
  EXPECT_GT(kinds[static_cast<int>(TaskKind::kDeadBranch)], 0u);
}

// Width invariants of each runnable table: at nw 2, 4 and 8, lane word j
// of the sweep and of every task's detect words equals the nw 1 result
// for that word's 64 patterns alone. For j = 0 this is the narrow-vs-wide
// invariant the ATPG loop relies on when it groups patterns.
TEST(SimdParityTest, WideLaneWordsMatchNarrowBatches) {
  for (const SimKernels* k : runnable_kernels()) {
    SCOPED_TRACE(k == &sim_kernels_scalar() ? "scalar" : "avx512");
    for (const KernelCase& c : kernel_cases()) {
      SCOPED_TRACE(c.label);
      const CombModel& m = *c.model;
      const std::vector<Word> in8 = input_state(m, kMaxLaneWords, 0xC0DE);
      std::vector<std::vector<Word>> good1, detect1;
      for (int j = 0; j < kMaxLaneWords; ++j) {
        good1.push_back(swept(*k, m, take_words(in8, kMaxLaneWords, j, 1), 1));
        detect1.push_back(graded(*k, m, good1.back(), c.tasks, 1).detect);
      }
      for (const int nw : {2, 4, 8}) {
        SCOPED_TRACE(nw);
        const std::vector<Word> good = swept(*k, m, take_words(in8, kMaxLaneWords, 0, nw), nw);
        const std::vector<Word> detect = graded(*k, m, good, c.tasks, nw).detect;
        for (int j = 0; j < nw; ++j) {
          ASSERT_EQ(take_words(good, nw, j, 1), good1[static_cast<std::size_t>(j)])
              << "sweep lane word " << j;
          ASSERT_EQ(take_words(detect, nw, j, 1), detect1[static_cast<std::size_t>(j)])
              << "detect lane word " << j;
        }
      }
    }
  }
}

TEST(SimdParityTest, SweepIdenticalAcrossTables) {
  const SimKernels* avx = avx512_kernels();
  if (avx == nullptr) GTEST_SKIP() << "no AVX-512 kernels on this build/CPU";
  for (const KernelCase& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    for (const int nw : kWidths) {
      SCOPED_TRACE(nw);
      const std::vector<Word> in = input_state(*c.model, nw, 0x5EED + nw);
      EXPECT_EQ(swept(*avx, *c.model, in, nw), swept(sim_kernels_scalar(), *c.model, in, nw));
    }
  }
}

// Ternary sweep (always kMaxLaneWords wide): inputs carry X in about a
// quarter of their lanes, every other net starts X, as in the
// equivalence checker's frames.
TEST(SimdParityTest, TernSweepIdenticalAcrossTables) {
  const SimKernels* avx = avx512_kernels();
  if (avx == nullptr) GTEST_SKIP() << "no AVX-512 kernels on this build/CPU";
  using Enc = EncVC;
  constexpr std::size_t nw = kMaxLaneWords;
  for (const KernelCase& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    const CombModel& m = *c.model;
    std::vector<Word> p(m.num_nets() * nw, 0), q(m.num_nets() * nw, 0);
    for (const NetId n : m.const0_nets()) {
      for (std::size_t j = 0; j < nw; ++j) Enc::zero(p[n * nw + j], q[n * nw + j]);
    }
    for (const NetId n : m.const1_nets()) {
      for (std::size_t j = 0; j < nw; ++j) Enc::one(p[n * nw + j], q[n * nw + j]);
    }
    Rng rng(0x7E57);
    for (const NetId n : m.input_nets()) {
      for (std::size_t j = 0; j < nw; ++j) {
        const Word care = rng.next_u64() | rng.next_u64();
        q[n * nw + j] = care;
        p[n * nw + j] = rng.next_u64() & care;
      }
    }
    std::vector<Word> sp = p, sq = q;
    sim_kernels_scalar().tern_sweep(m, sp.data(), sq.data());
    avx->tern_sweep(m, p.data(), q.data());
    EXPECT_EQ(p, sp);
    EXPECT_EQ(q, sq);
  }
}

TEST(SimdParityTest, GradeIdenticalAcrossTables) {
  const SimKernels* avx = avx512_kernels();
  if (avx == nullptr) GTEST_SKIP() << "no AVX-512 kernels on this build/CPU";
  for (const KernelCase& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    for (const int nw : kWidths) {
      SCOPED_TRACE(nw);
      const std::vector<Word> good =
          swept(sim_kernels_scalar(), *c.model, input_state(*c.model, nw, 0x6AD + nw), nw);
      const Grades s = graded(sim_kernels_scalar(), *c.model, good, c.tasks, nw);
      const Grades a = graded(*avx, *c.model, good, c.tasks, nw);
      EXPECT_GT(std::count_if(s.detect.begin(), s.detect.end(), [](Word w) { return w != 0; }),
                0);
      EXPECT_EQ(a.detect, s.detect);
      EXPECT_EQ(a.stats.faults_graded, s.stats.faults_graded);
      EXPECT_EQ(a.stats.cone_skips, s.stats.cone_skips);
      EXPECT_EQ(a.stats.node_evals, s.stats.node_evals);
      EXPECT_EQ(a.stats.events, s.stats.events);
    }
  }
}

TEST(SimdParityTest, ForcedIdenticalAcrossTables) {
  const SimKernels* avx = avx512_kernels();
  if (avx == nullptr) GTEST_SKIP() << "no AVX-512 kernels on this build/CPU";
  for (const KernelCase& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    const CombModel& m = *c.model;
    for (const int nw : kWidths) {
      SCOPED_TRACE(nw);
      const std::vector<Word> good =
          swept(sim_kernels_scalar(), m, input_state(m, nw, 0xF0 + nw), nw);
      for (const std::size_t i : forced_sample(c.tasks)) {
        SCOPED_TRACE(i);
        // Early exits leave `faulty` untouched, so both start equal.
        std::vector<Word> fs(good.size(), 0xA5A5A5A5A5A5A5A5ull), fa = fs;
        Word ds[kMaxLaneWords], da[kMaxLaneWords];
        sim_kernels_scalar().forced(m, good.data(), fs.data(), c.tasks[i], ds, nw);
        avx->forced(m, good.data(), fa.data(), c.tasks[i], da, nw);
        ASSERT_EQ(fa, fs);
        ASSERT_TRUE(std::equal(da, da + nw, ds));
      }
    }
  }
}

}  // namespace
}  // namespace tpi
