// Parallel-vs-serial equivalence of the ATPG fault-simulation inner loop:
// run_atpg must produce a bit-identical AtpgResult for any AtpgOptions::jobs
// (FaultSimBank partitions deterministically and merges in fault-list
// order). Runs at jobs ∈ {1, 2, hardware} on two generated circuit
// profiles; carries the "smoke" ctest label so a -DTPI_SANITIZE=thread
// build doubles as a data-race check of the new path.
#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "atpg/atpg.hpp"
#include "circuits/generator.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

AtpgResult run_with_jobs(const CircuitProfile& profile, int jobs, int test_points = 0) {
  auto nl = generate_circuit(lib(), profile);
  if (test_points > 0) {
    TpiOptions to;
    to.num_test_points = test_points;
    DesignDB db(*nl);
    insert_test_points(db, to);
  }
  ScanOptions so;
  so.max_chain_length = 16;
  insert_scan(*nl, so);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions opts;
  opts.jobs = jobs;
  return run_atpg(model, t, opts);
}

void expect_bit_identical(const AtpgResult& a, const AtpgResult& b) {
  // Patterns: count and every bit.
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].bits, b.patterns[i].bits) << "pattern " << i;
  }
  // Per-fault statuses.
  ASSERT_EQ(a.faults.faults.size(), b.faults.faults.size());
  for (std::size_t i = 0; i < a.faults.faults.size(); ++i) {
    EXPECT_EQ(a.faults.faults[i].status, b.faults.faults[i].status) << "fault " << i;
  }
  // Aggregate metrics (exact, not approximate: same arithmetic, same order).
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.scan_tested, b.scan_tested);
  EXPECT_EQ(a.redundant, b.redundant);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.fault_coverage_pct, b.fault_coverage_pct);
  EXPECT_EQ(a.fault_efficiency_pct, b.fault_efficiency_pct);
  EXPECT_EQ(a.patterns_before_compaction, b.patterns_before_compaction);
  EXPECT_EQ(a.podem_calls, b.podem_calls);
  EXPECT_EQ(a.podem_aborts, b.podem_aborts);
  // Kernel event counters are scheduling-independent too (each fault is
  // graded exactly once; only wall_ms may differ).
  const AtpgPhaseProfile pa = a.profile.total();
  const AtpgPhaseProfile pb = b.profile.total();
  EXPECT_EQ(pa.batches, pb.batches);
  EXPECT_EQ(pa.faults_graded, pb.faults_graded);
  EXPECT_EQ(pa.cone_skips, pb.cone_skips);
  EXPECT_EQ(pa.node_evals, pb.node_evals);
  EXPECT_EQ(pa.events, pb.events);
}

TEST(AtpgParallelTest, BitIdenticalAcrossJobCountsOnTinyProfile) {
  const AtpgResult serial = run_with_jobs(test::tiny_profile(11), 1);
  const AtpgResult two = run_with_jobs(test::tiny_profile(11), 2);
  const AtpgResult hw = run_with_jobs(test::tiny_profile(11), 0);  // hardware
  EXPECT_EQ(serial.profile.jobs, 1);
  EXPECT_EQ(two.profile.jobs, 2);
  EXPECT_GE(hw.profile.jobs, 1);
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, hw);
}

TEST(AtpgParallelTest, BitIdenticalOnHardBlockProfileWithTestPoints) {
  // Second profile: gated hard blocks + test points, the shape that makes
  // the paper's Table 1 interesting — and drives PODEM + compaction harder.
  CircuitProfile p = test::tiny_profile(7);
  p.num_comb_gates = 900;
  p.num_ffs = 60;
  p.num_hard_blocks = 4;
  p.hard_block_width = 10;
  p.hard_classes_per_block = 12;
  p.hard_mode_bits = 5;

  const AtpgResult serial = run_with_jobs(p, 1, 4);
  const AtpgResult two = run_with_jobs(p, 2, 4);
  const AtpgResult four = run_with_jobs(p, 4, 4);
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, four);
  EXPECT_GT(serial.num_patterns(), 0);
  EXPECT_GT(serial.profile.total().faults_graded, 0u);
}

TEST(AtpgParallelTest, BankGradeMatchesPerFaultDetects) {
  auto nl = generate_circuit(lib(), test::tiny_profile(31));
  ScanOptions so;
  so.max_chain_length = 10;
  insert_scan(*nl, so);
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) faults.push_back(&f);

  Rng rng(9);
  std::vector<Word> words(model.input_nets().size());
  for (auto& w : words) w = rng.next_u64();

  FaultSimulator serial(model);
  serial.load_batch(words);
  std::vector<Word> expected;
  for (Fault* f : faults) expected.push_back(serial.detects(*f));

  for (const int jobs : {1, 2, 3}) {
    FaultSimBank bank(model, jobs);
    bank.load_batch(words);
    std::vector<Word> got;
    bank.grade(faults, got);
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
    const FaultSimStats s = bank.take_stats();
    EXPECT_EQ(s.faults_graded, faults.size());
  }
}

TEST(AtpgParallelTest, GradeAndDropKeepsRedundantAndAbortedLive) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  FaultSimBank bank(model, 2);
  // Exhaustive batch over the 3 inputs.
  std::vector<Word> words(3, 0);
  for (int row = 0; row < 8; ++row) {
    for (int i = 0; i < 3; ++i) {
      if (row & (1 << i)) words[static_cast<std::size_t>(i)] |= Word{1} << row;
    }
  }
  bank.load_batch(words);

  Fault detectable;
  detectable.net = nl->find_net("y");
  Fault redundant_like = detectable;  // same site, pre-marked redundant
  redundant_like.status = FaultStatus::kRedundant;
  redundant_like.stuck1 = true;
  std::vector<Fault*> live{&detectable, &redundant_like};
  const FaultSimBank::DropOutcome out = bank.grade_and_drop(live);
  // Both faults are detectable by the exhaustive batch: the redundant mark
  // is overridden by simulation evidence and both leave the live list.
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(detectable.status, FaultStatus::kDetected);
  EXPECT_EQ(redundant_like.status, FaultStatus::kDetected);
  EXPECT_NE(out.useful, Word{0});
  // Only the ex-kUndetected fault counts toward the warm-up yield.
  EXPECT_EQ(out.equiv_dropped, detectable.equiv_count);
}

}  // namespace
}  // namespace tpi
