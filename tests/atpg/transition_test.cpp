// Transition-delay fault model: launch-on-capture grading semantics, the
// weaker (buffer/inverter-only) collapsing, cross-width and cross-jobs
// bit-identity of the two-cycle detection words, and the generalized TAT
// formula. The launch condition is applied as a mask after the unchanged
// SIMD kernels, whose backend parity sim/simd_parity_test.cpp checks.
#include <gtest/gtest.h>

#include <vector>

#include "../common/test_circuits.hpp"
#include "atpg/atpg.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "scan/scan.hpp"
#include "sim/simd.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(TransitionFaultListTest, ModelStampedAndNamesRoundTrip) {
  auto nl = generate_circuit(lib(), test::tiny_profile(41));
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model, FaultModel::kTransition);
  ASSERT_FALSE(fl.faults.empty());
  for (const Fault& f : fl.faults) EXPECT_EQ(f.model, FaultModel::kTransition);
  // The 1-arg overload keeps the stuck-at default.
  const FaultList sa = build_fault_list(model);
  for (const Fault& f : sa.faults) EXPECT_EQ(f.model, FaultModel::kStuckAt);

  EXPECT_STREQ(fault_model_name(FaultModel::kStuckAt), "stuck_at");
  EXPECT_STREQ(fault_model_name(FaultModel::kTransition), "transition");
  EXPECT_EQ(fault_model_from_name("stuck_at"), FaultModel::kStuckAt);
  EXPECT_EQ(fault_model_from_name("transition"), FaultModel::kTransition);
  EXPECT_EQ(fault_model_from_name("bridging"), std::nullopt);
}

TEST(TransitionFaultListTest, CollapsingIsWeakerThanStuckAt) {
  // Controlling-value folds are stuck-at-only, so the transition list keeps
  // more representatives over the same uncollapsed universe.
  auto nl = generate_circuit(lib(), test::tiny_profile(42));
  CombModel model(*nl, SeqView::kCapture);
  const FaultList sa = build_fault_list(model, FaultModel::kStuckAt);
  const FaultList tr = build_fault_list(model, FaultModel::kTransition);
  EXPECT_EQ(tr.total_uncollapsed, sa.total_uncollapsed);
  EXPECT_GT(tr.faults.size(), sa.faults.size());
  std::int64_t sum = 0;
  for (const Fault& f : tr.faults) sum += f.equiv_count;
  EXPECT_EQ(sum, tr.total_uncollapsed);
}

TEST(TransitionGradingTest, SingleFrameBatchDetectsNothing) {
  // A transition fault needs a launch frame: grading a load_batch() batch
  // (no launch) must return zero for every fault, never a false detect.
  auto nl = generate_circuit(lib(), test::tiny_profile(43));
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model, FaultModel::kTransition);
  FaultSimBank bank(model);
  Rng rng(0xBEEF);
  std::vector<Word> words(model.input_nets().size());
  for (Word& w : words) w = rng.next_u64();
  bank.load_batch(words);
  for (const Fault& f : fl.faults) EXPECT_EQ(test::detect_word(bank, f), Word{0});
  // The same frame as a launch-on-capture pair does detect faults.
  bank.load_batch_loc(words);
  std::int64_t detecting = 0;
  for (const Fault& f : fl.faults) detecting += test::detect_word(bank, f) != 0;
  EXPECT_GT(detecting, 0);
}

TEST(TransitionGradingTest, PureCombinationalCircuitHasNoLocDetections) {
  // With no state boundary the capture frame is the launch frame (PIs are
  // held), so no site ever transitions and held-PI LOC detects nothing.
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model, FaultModel::kTransition);
  FaultSimBank bank(model);
  Rng rng(0xF00D);
  std::vector<Word> words(model.input_nets().size());
  for (Word& w : words) w = rng.next_u64();
  bank.load_batch_loc(words);
  for (const Fault& f : fl.faults) EXPECT_EQ(test::detect_word(bank, f), Word{0});
}

TEST(TransitionGradingTest, GradesIdenticalAcrossWidths) {
  auto nl = generate_circuit(lib(), test::tiny_profile(44));
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model, FaultModel::kTransition);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) {
    if (f.status != FaultStatus::kScanTested) faults.push_back(&f);
  }
  ASSERT_GT(faults.size(), 50u);
  const std::vector<FaultTask> tasks = resolve_fault_tasks(model, faults);

  Rng rng(0xA5A5);
  const std::size_t ni = model.input_nets().size();
  std::vector<Word> narrow(ni), wide(ni * static_cast<std::size_t>(kMaxLaneWords));
  for (std::size_t i = 0; i < ni; ++i) {
    for (int j = 0; j < kMaxLaneWords; ++j) {
      wide[i * static_cast<std::size_t>(kMaxLaneWords) + static_cast<std::size_t>(j)] =
          rng.next_u64();
    }
    narrow[i] = wide[i * static_cast<std::size_t>(kMaxLaneWords)];
  }

  FaultSimBank bank(model);
  bank.load_batch_loc(narrow);
  std::vector<Word> d1, d8;
  bank.grade(faults, tasks, d1);

  bank.configure_lanes(kMaxLaneWords);
  bank.load_batch_loc(wide);
  bank.grade(faults, tasks, d8);

  for (std::size_t i = 0; i < faults.size(); ++i) {
    ASSERT_EQ(d1[i], d8[i * static_cast<std::size_t>(kMaxLaneWords)])
        << "wide word 0 diverges from narrow batch at fault " << i;
  }
}

TEST(TransitionGradingTest, BankMatchesSerialAtAnyJobs) {
  auto nl = generate_circuit(lib(), test::tiny_profile(45));
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model, FaultModel::kTransition);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) {
    if (f.status != FaultStatus::kScanTested) faults.push_back(&f);
  }
  const std::vector<FaultTask> tasks = resolve_fault_tasks(model, faults);
  Rng rng(0x5EED);
  std::vector<Word> words(model.input_nets().size());
  for (Word& w : words) w = rng.next_u64();

  std::vector<Word> serial;
  for (const int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    FaultSimBank bank(model, jobs);
    bank.load_batch_loc(words);
    std::vector<Word> detect;
    bank.grade(faults, tasks, detect);
    if (jobs == 1) {
      serial = detect;
    } else {
      EXPECT_EQ(detect, serial);
    }
  }
}

AtpgResult run_transition_atpg(std::uint64_t seed, int jobs) {
  auto nl = generate_circuit(lib(), test::tiny_profile(seed));
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions opts;
  opts.fault_model = FaultModel::kTransition;
  opts.jobs = jobs;
  return run_atpg(model, t, opts);
}

TEST(TransitionAtpgTest, EndToEndDeterministicAcrossJobs) {
  const AtpgResult serial = run_transition_atpg(46, 1);
  EXPECT_EQ(serial.fault_model, FaultModel::kTransition);
  EXPECT_GT(serial.num_patterns(), 0);
  EXPECT_GT(serial.detected, 0);
  EXPECT_GT(serial.fault_coverage_pct, 30.0);  // LOC leaves PI sites untestable
  EXPECT_LE(serial.fault_coverage_pct, 100.0);

  for (const int jobs : {2, 4}) {
    SCOPED_TRACE(jobs);
    const AtpgResult parallel = run_transition_atpg(46, jobs);
    EXPECT_EQ(parallel.detected, serial.detected);
    EXPECT_EQ(parallel.fault_coverage_pct, serial.fault_coverage_pct);
    ASSERT_EQ(parallel.patterns.size(), serial.patterns.size());
    for (std::size_t i = 0; i < serial.patterns.size(); ++i) {
      EXPECT_EQ(parallel.patterns[i].bits, serial.patterns[i].bits) << "pattern " << i;
    }
  }
}

TEST(TransitionAtpgTest, TransitionCoverageBelowStuckAt) {
  // Held-PI LOC cannot launch transitions at primary inputs and needs the
  // launch condition on top of capture-frame observability, so transition
  // coverage is strictly harder than stuck-at on the same circuit.
  auto nl = generate_circuit(lib(), test::tiny_profile(47));
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions tr_opts;
  tr_opts.fault_model = FaultModel::kTransition;
  const AtpgResult sa = run_atpg(model, t, {});
  const AtpgResult tr = run_atpg(model, t, tr_opts);
  EXPECT_LT(tr.fault_coverage_pct, sa.fault_coverage_pct);
}

TEST(TatTest, GeneralizedFormulaReproducesPaperAtOneCaptureCycle) {
  for (const int l : {0, 9, 100}) {
    for (const int p : {1, 96, 5000}) {
      // The default one capture cycle is the paper's eq. (2).
      EXPECT_EQ(test_application_time(l, p), static_cast<std::int64_t>(l + 1) * p + l);
      // Launch-on-capture: one extra capture cycle per pattern.
      EXPECT_EQ(test_application_time(l, p, 2),
                static_cast<std::int64_t>(l + 2) * p + l);
    }
  }
}

}  // namespace
}  // namespace tpi
