#include "atpg/atpg.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"

namespace tpi {
namespace {

using test::lib;

AtpgResult run_on_tiny(std::uint64_t seed, const AtpgOptions& opts = {}) {
  auto nl = generate_circuit(lib(), test::tiny_profile(seed));
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  return run_atpg(model, t, opts);
}

TEST(AtpgTest, AchievesHighEfficiencyOnTinyCircuit) {
  const AtpgResult r = run_on_tiny(1);
  EXPECT_GT(r.fault_coverage_pct, 90.0);
  EXPECT_GT(r.fault_efficiency_pct, 97.0);
  EXPECT_GT(r.num_patterns(), 0);
  EXPECT_EQ(r.detected + r.scan_tested + r.redundant + r.aborted +
                r.faults.count_equiv(FaultStatus::kUndetected),
            r.total_faults);
}

TEST(AtpgTest, StaticCompactionShrinksPatternSet) {
  const AtpgResult r = run_on_tiny(2);
  EXPECT_GT(r.num_patterns(), 0);
  EXPECT_LT(r.num_patterns(), r.patterns_before_compaction);
  // That compaction loses no coverage is checked by replaying the kept
  // patterns (CompactedPatternsStillDetectEverything).
}

TEST(AtpgTest, CompactedPatternsStillDetectEverything) {
  auto nl = generate_circuit(lib(), test::tiny_profile(3));
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const AtpgResult r = run_atpg(model, t, {});

  // Replay the final pattern set from scratch; every kDetected fault must
  // be re-detected.
  FaultList fresh = build_fault_list(model);
  std::vector<Fault*> live;
  for (Fault& f : fresh.faults) {
    if (f.status == FaultStatus::kUndetected) live.push_back(&f);
  }
  FaultSimBank bank(model);
  std::vector<FaultTask> tasks = resolve_fault_tasks(model, live);
  std::vector<int> first;
  const std::size_t ni = model.input_nets().size();
  for (std::size_t start = 0; start < r.patterns.size(); start += 64) {
    std::vector<Word> words(ni, 0);
    const std::size_t end = std::min(r.patterns.size(), start + 64);
    for (std::size_t k = start; k < end; ++k) {
      for (std::size_t i = 0; i < ni; ++i) {
        words[i] |= static_cast<Word>(r.patterns[k].bits[i] & 1) << (k - start);
      }
    }
    bank.load_batch(words);
    bank.first_detections(live, tasks, end - start, first);
    drop_first_detected(live, tasks, first, end - start);
  }
  EXPECT_EQ(fresh.count_equiv(FaultStatus::kDetected), r.detected);
}

TEST(AtpgTest, DeterministicForFixedSeed) {
  const AtpgResult a = run_on_tiny(4);
  const AtpgResult b = run_on_tiny(4);
  EXPECT_EQ(a.num_patterns(), b.num_patterns());
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.redundant, b.redundant);
}

TEST(AtpgTest, TestPointsReducePatternsOnHardCircuit) {
  // A circuit dominated by gated hard blocks: control points on the
  // enables must shrink the compact pattern set (the paper's Table 1).
  CircuitProfile p = test::tiny_profile(7);
  p.num_comb_gates = 900;
  p.num_ffs = 60;
  p.num_hard_blocks = 4;
  p.hard_block_width = 10;
  p.hard_classes_per_block = 12;
  p.hard_mode_bits = 5;

  auto run = [&](int tps) {
    auto nl = generate_circuit(lib(), p);
    TpiOptions to;
    to.num_test_points = tps;
    DesignDB db(*nl);
    insert_test_points(db, to);
    insert_scan(*nl);
    CombModel model(*nl, SeqView::kCapture);
    const TestabilityResult t = analyze_testability(model);
    return run_atpg(model, t, {});
  };
  const AtpgResult base = run(0);
  const AtpgResult tp4 = run(4);
  EXPECT_LT(tp4.num_patterns(), base.num_patterns());
  EXPECT_GE(tp4.fault_coverage_pct, base.fault_coverage_pct - 0.25);
  EXPECT_GT(tp4.total_faults, base.total_faults);  // test points add faults
}

TEST(AtpgMetricsTest, TestDataVolumeEquation1) {
  // TDV = 2n((l_max + 1)p + l_max), §4.2 eq. (1).
  EXPECT_EQ(test_data_volume(1, 10, 0), 2 * 10);
  EXPECT_EQ(test_data_volume(17, 100, 500), 2LL * 17 * (101 * 500 + 100));
  EXPECT_EQ(test_data_volume(32, 112, 1000), 2LL * 32 * (113 * 1000 + 112));
}

TEST(AtpgMetricsTest, TestApplicationTimeEquation2) {
  // TAT = (l_max + 1)p + l_max, §4.2 eq. (2).
  EXPECT_EQ(test_application_time(10, 0), 10);
  EXPECT_EQ(test_application_time(100, 500), 101LL * 500 + 100);
}

TEST(AtpgMetricsTest, TdvScalesWithPatternCount) {
  const auto base = test_data_volume(16, 100, 1000);
  const auto fewer = test_data_volume(16, 100, 600);
  EXPECT_NEAR(static_cast<double>(fewer) / static_cast<double>(base), 0.6, 0.01);
}

}  // namespace
}  // namespace tpi
