// Parallel-vs-serial equivalence of the ATPG fault-simulation inner loop:
// run_atpg must produce a bit-identical AtpgResult for any AtpgOptions::jobs
// (FaultSimBank partitions deterministically and merges in fault-list
// order). Runs at jobs ∈ {1, 2, hardware} on two generated circuit
// profiles; carries the "smoke" ctest label so a -DTPI_SANITIZE=thread
// build doubles as a data-race check of the new path.
#include <gtest/gtest.h>

#include <algorithm>

#include "../common/test_circuits.hpp"
#include "atpg/atpg.hpp"
#include "circuits/generator.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

/// run_atpg's result plus the metrics it published.
struct AtpgRun : AtpgResult {
  MetricsSnapshot metrics;
};

double sim_jobs(const AtpgRun& run) {
  const MetricValue* v = run.metrics.find("rt.atpg.sim.jobs");
  return v != nullptr ? v->value : 0.0;
}

AtpgRun run_with_jobs(const CircuitProfile& profile, int jobs, int test_points = 0) {
  auto nl = generate_circuit(lib(), profile);
  if (test_points > 0) {
    TpiOptions to;
    to.num_test_points = test_points;
    DesignDB db(*nl);
    insert_test_points(db, to);
  }
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions opts;
  opts.jobs = jobs;
  MetricsRegistry registry;
  const ScopedMetricsRegistry scope(registry);
  AtpgRun run{run_atpg(model, t, opts), {}};
  run.metrics = registry.snapshot();
  return run;
}

void expect_bit_identical(const AtpgRun& a, const AtpgRun& b) {
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
  // The published atpg.sim.* kernel counters are scheduling-independent
  // too (each fault is graded exactly once per batch).
  EXPECT_EQ(a.metrics.to_json(MetricsSnapshot::kNoRuntime),
            b.metrics.to_json(MetricsSnapshot::kNoRuntime));
}

TEST(AtpgParallelTest, BitIdenticalAcrossJobCountsOnTinyProfile) {
  const AtpgRun serial = run_with_jobs(test::tiny_profile(11), 1);
  const AtpgRun two = run_with_jobs(test::tiny_profile(11), 2);
  const AtpgRun hw = run_with_jobs(test::tiny_profile(11), 0);  // hardware
  EXPECT_EQ(sim_jobs(serial), 1.0);
  EXPECT_EQ(sim_jobs(two), 2.0);
  EXPECT_GE(sim_jobs(hw), 1.0);
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

  const AtpgRun serial = run_with_jobs(p, 1, 4);
  const AtpgRun two = run_with_jobs(p, 2, 4);
  const AtpgRun four = run_with_jobs(p, 4, 4);
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, four);
  EXPECT_GT(serial.num_patterns(), 0);
  const MetricValue* graded = serial.metrics.find("atpg.sim.faults_graded");
  ASSERT_NE(graded, nullptr);
  EXPECT_GT(graded->count, 0u);
}

// Detect words and first detections of a batched bank equal per-fault
// grading at any worker count, at 1 and kMaxLaneWords lane words, for a
// partial last lane word.
TEST(AtpgParallelTest, BankGradesIdenticalAcrossJobCounts) {
  auto nl = generate_circuit(lib(), test::tiny_profile(31));
  insert_scan(*nl);
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) faults.push_back(&f);
  const std::vector<FaultTask> tasks = resolve_fault_tasks(model, faults);
  // Enough faults that each of up to three workers crosses at least one
  // boundary between the 256-fault chunks of first_detections.
  ASSERT_GT(faults.size(), 3u * 256);

  for (const int nw : {1, kMaxLaneWords}) {
    SCOPED_TRACE(nw);
    Rng rng(static_cast<std::uint64_t>(8 + nw));
    std::vector<Word> words(model.input_nets().size() * static_cast<std::size_t>(nw));
    for (auto& w : words) w = rng.next_u64();
    const std::size_t patterns = static_cast<std::size_t>(nw - 1) * kWordBits + 23;
    std::vector<Word> ref_detect;
    std::vector<int> ref_first;
    for (const int jobs : {1, 2, 3}) {
      FaultSimBank bank(model, jobs);
      bank.configure_lanes(nw);
      bank.load_batch(words);
      std::vector<Word> detect;
      std::vector<int> first;
      bank.grade(faults, tasks, detect);
      bank.first_detections(faults, tasks, patterns, first);
      EXPECT_EQ(bank.take_stats().faults_graded, 2 * faults.size());
      // first_detections streams each worker's range through fixed-size
      // chunks: every entry is the lowest set bit below `patterns` of the
      // fault's grade() words, on both sides of every chunk boundary.
      for (std::size_t i = 0; i < faults.size(); ++i) {
        int lowest = -1;
        for (std::size_t k = 0; k < patterns; ++k) {
          if ((detect[i * static_cast<std::size_t>(nw) + k / kWordBits] >> (k % kWordBits)) & 1) {
            lowest = static_cast<int>(k);
            break;
          }
        }
        ASSERT_EQ(first[i], lowest) << "fault " << i << " jobs=" << jobs;
      }
      if (jobs > 1) {
        EXPECT_EQ(detect, ref_detect) << "jobs=" << jobs;
        EXPECT_EQ(first, ref_first) << "jobs=" << jobs;
        continue;
      }
      // Reference: every fault graded on its own.
      for (std::size_t i = 0; i < faults.size(); ++i) {
        ASSERT_EQ(test::detect_word(bank, *faults[i]), detect[i * static_cast<std::size_t>(nw)]);
      }
      EXPECT_GT(std::count_if(first.begin(), first.end(), [](int k) { return k >= 0; }), 0);
      EXPECT_LT(*std::max_element(first.begin(), first.end()), static_cast<int>(patterns));
      ref_detect = detect;
      ref_first = first;
    }
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
  Fault aborted_like = detectable;  // pre-marked aborted
  aborted_like.status = FaultStatus::kAborted;
  std::vector<Fault*> live{&detectable, &redundant_like, &aborted_like};
  std::vector<FaultTask> tasks = resolve_fault_tasks(model, live);
  std::vector<int> first;
  bank.first_detections(live, tasks, 8, first);
  drop_first_detected(live, tasks, first, 8);
  // All faults are detectable by the exhaustive batch: the redundant and
  // aborted marks are overridden by simulation evidence and every fault
  // leaves the live list.
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(tasks.empty());
  EXPECT_EQ(detectable.status, FaultStatus::kDetected);
  EXPECT_EQ(redundant_like.status, FaultStatus::kDetected);
  EXPECT_EQ(aborted_like.status, FaultStatus::kDetected);
}

}  // namespace
}  // namespace tpi
