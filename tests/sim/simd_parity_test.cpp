// Cross-backend parity: every SIMD backend compiled in and supported by
// the running CPU must produce bit-identical results — fault detection
// words (at every lane width), miter verdicts/counterexamples, and the
// deterministic metrics snapshot of a whole flow run. The logical lane
// count is fixed algorithmically, so any divergence here is a kernel
// codegen bug, not a tolerance question.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "flow/flow.hpp"
#include "sim/simd.hpp"
#include "util/rng.hpp"
#include "verify/equiv.hpp"
#include "verify/miter.hpp"

namespace tpi {
namespace {

using test::available_backends;
using test::lib;
using test::ScopedBackend;

TEST(SimdParityTest, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(simd_backend_available(SimdBackend::kScalar));
  EXPECT_FALSE(available_backends().empty());
  EXPECT_GE(simd_lane_bits(), 64);
}

// Fault grading: per-backend detection words must match bit for bit, at
// lane width 1 and at the full super-batch width — and lane word 0 of the
// wide batch must equal the narrow batch when they share the first 64
// patterns (the width-grouping invariant the ATPG loop relies on).
TEST(SimdParityTest, FaultGradesIdenticalAcrossBackends) {
  const auto nl = generate_circuit(lib(), test::tiny_profile(31));
  const CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) {
    if (f.status != FaultStatus::kScanTested) faults.push_back(&f);
  }
  ASSERT_GT(faults.size(), 50u);
  const std::vector<FaultTask> tasks = resolve_fault_tasks(model, faults);

  Rng rng(0xC0DE);
  const std::size_t ni = model.input_nets().size();
  std::vector<Word> narrow(ni), wide(ni * static_cast<std::size_t>(kMaxLaneWords));
  for (std::size_t i = 0; i < ni; ++i) {
    for (int j = 0; j < kMaxLaneWords; ++j) {
      wide[i * static_cast<std::size_t>(kMaxLaneWords) + static_cast<std::size_t>(j)] =
          rng.next_u64();
    }
    narrow[i] = wide[i * static_cast<std::size_t>(kMaxLaneWords)];
  }

  std::vector<Word> ref_narrow, ref_wide;
  for (const SimdBackend b : available_backends()) {
    SCOPED_TRACE(simd_backend_name(b));
    ScopedBackend pin(b);
    FaultSimBank bank(model);
    bank.load_batch(narrow);
    std::vector<Word> d1, d8;
    bank.grade(faults, tasks, d1);

    bank.configure_lanes(kMaxLaneWords);
    bank.load_batch(wide);
    bank.grade(faults, tasks, d8);

    for (std::size_t i = 0; i < faults.size(); ++i) {
      ASSERT_EQ(d1[i], d8[i * static_cast<std::size_t>(kMaxLaneWords)])
          << "wide word 0 diverges from narrow batch at fault " << i;
    }
    if (ref_narrow.empty()) {
      ref_narrow = d1;
      ref_wide = d8;
      continue;
    }
    ASSERT_EQ(d1, ref_narrow);
    ASSERT_EQ(d8, ref_wide);
  }
}

// Miter verdicts: both the clean (equivalent, ternary-proof path) and the
// broken (counterexample path) checks must agree exactly across backends.
TEST(SimdParityTest, MiterVerdictsIdenticalAcrossBackends) {
  const auto golden = test::make_shift_register();
  Netlist mutant = *golden;
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  ASSERT_NE(inv, nullptr);
  const NetId t = mutant.find_net("t");
  ASSERT_NE(t, kNoNet);
  mutant.insert_cell_in_net(t, mutant.add_cell(inv, "bug.inv"), 0);

  const MiterResult clean = build_miter(*golden, *golden);
  ASSERT_TRUE(clean.ok()) << clean.error;
  const MiterResult broken = build_miter(*golden, mutant);
  ASSERT_TRUE(broken.ok()) << broken.error;

  bool have_ref = false;
  EquivResult ref_clean, ref_broken;
  for (const SimdBackend b : available_backends()) {
    SCOPED_TRACE(simd_backend_name(b));
    ScopedBackend pin(b);
    const EquivResult rc = EquivChecker(*clean.netlist).check();
    const EquivResult rb = EquivChecker(*broken.netlist).check();
    EXPECT_TRUE(rc.equivalent);
    EXPECT_FALSE(rb.equivalent);
    if (!have_ref) {
      ref_clean = rc;
      ref_broken = rb;
      have_ref = true;
      continue;
    }
    EXPECT_EQ(rc.equivalent, ref_clean.equivalent);
    EXPECT_EQ(rc.proven_x_init, ref_clean.proven_x_init);
    EXPECT_EQ(rc.frames_simulated, ref_clean.frames_simulated);
    EXPECT_EQ(rb.frames_simulated, ref_broken.frames_simulated);
    EXPECT_EQ(rb.cex.source, ref_broken.cex.source);
    EXPECT_EQ(rb.cex.fail_frame, ref_broken.cex.fail_frame);
    EXPECT_EQ(rb.cex.pi_frames, ref_broken.cex.pi_frames);
    EXPECT_EQ(rb.cex.initial_state, ref_broken.cex.initial_state);
  }
}

// Whole-flow digest: the deterministic (non-"rt.") metrics snapshot of a
// full run — ATPG patterns, verify replay, equivalence frames, the sweep's
// own counters — must serialise to the same JSON under every backend.
TEST(SimdParityTest, FlowMetricsJsonIdenticalAcrossBackends) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  opts.verify = true;

  std::string ref_json;
  int ref_patterns = -1;
  for (const SimdBackend b : available_backends()) {
    SCOPED_TRACE(simd_backend_name(b));
    ScopedBackend pin(b);
    FlowEngine engine(lib(), test::tiny_profile(808), opts);
    const FlowResult& r = engine.run(StageMask::all().with(Stage::kVerify));
    ASSERT_TRUE(r.verify.ok()) << r.verify.error;
    const std::string json = r.metrics.to_json(MetricsSnapshot::kNoRuntime);
    if (ref_json.empty()) {
      ref_json = json;
      ref_patterns = r.saf_patterns;
      continue;
    }
    EXPECT_EQ(json, ref_json);
    EXPECT_EQ(r.saf_patterns, ref_patterns);
  }
}

}  // namespace
}  // namespace tpi
