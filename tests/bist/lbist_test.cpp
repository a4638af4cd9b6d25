#include "bist/lbist.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "tpi/tpi.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(LfsrTest, FullPeriodForSmallDegree) {
  Lfsr lfsr(8, 1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 255; ++i) {
    EXPECT_TRUE(seen.insert(lfsr.step()).second) << "state repeated at step " << i;
  }
  // A primitive degree-8 polynomial cycles through all 255 nonzero states.
  EXPECT_EQ(seen.size(), 255u);
  // The 256th step closes the cycle: back to an already-seen state.
  EXPECT_TRUE(seen.contains(lfsr.step()));
}

TEST(LfsrTest, NeverReachesZeroState) {
  Lfsr lfsr(16, 0);  // zero seed coerced to nonzero
  for (int i = 0; i < 70000; ++i) {
    ASSERT_NE(lfsr.step(), 0u);
  }
}

TEST(LfsrTest, WordsLookBalanced) {
  Lfsr lfsr(32, 0xBEEF);
  int ones = 0;
  const int words = 512;
  for (int i = 0; i < words; ++i) ones += std::popcount(lfsr.next_word());
  const double ratio = static_cast<double>(ones) / (words * 64.0);
  EXPECT_NEAR(ratio, 0.5, 0.02);
}

TEST(MisrTest, SignatureDependsOnEveryInput) {
  Misr a(32, 0), b(32, 0);
  for (int i = 0; i < 100; ++i) {
    a.absorb(static_cast<std::uint64_t>(i));
    b.absorb(static_cast<std::uint64_t>(i == 57 ? 9999 : i));  // one corrupt word
  }
  EXPECT_NE(a.signature(), b.signature());
}

TEST(MisrTest, DeterministicSignature) {
  Misr a(32, 7), b(32, 7);
  for (int i = 0; i < 64; ++i) {
    a.absorb(0x1234 + static_cast<std::uint64_t>(i));
    b.absorb(0x1234 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(LbistTest, CoverageCurveIsMonotone) {
  auto nl = generate_circuit(lib(), test::tiny_profile(201));
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 4096;
  opts.report_every = 512;
  const LbistResult r = run_lbist(model, opts);
  ASSERT_GE(r.coverage_curve.size(), 2u);
  for (std::size_t i = 1; i < r.coverage_curve.size(); ++i) {
    EXPECT_GE(r.coverage_curve[i].second, r.coverage_curve[i - 1].second);
    EXPECT_GT(r.coverage_curve[i].first, r.coverage_curve[i - 1].first);
  }
  EXPECT_GT(r.final_coverage_pct, 60.0);
  EXPECT_LE(r.final_coverage_pct, 100.0);
}

TEST(LbistTest, DeterministicForFixedSeed) {
  auto nl = generate_circuit(lib(), test::tiny_profile(202));
  CombModel model(*nl, SeqView::kCapture);
  const LbistResult a = run_lbist(model, {});
  const LbistResult b = run_lbist(model, {});
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.detected, b.detected);
}

TEST(LbistTest, PseudoRandomResistantFaultsCapCoverage) {
  // A circuit with gated hard regions: pure pseudo-random BIST must leave
  // the resistant faults undetected (the §2 motivation for TPI).
  CircuitProfile p = test::tiny_profile(203);
  p.num_comb_gates = 900;
  p.num_hard_blocks = 3;
  p.hard_block_width = 14;
  p.hard_classes_per_block = 10;
  p.hard_mode_bits = 5;
  auto nl = generate_circuit(lib(), p);
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 8192;
  const LbistResult r = run_lbist(model, opts);
  EXPECT_LT(r.final_coverage_pct, 97.0);  // resistant faults cap the curve
}

TEST(LbistTest, TestPointsLiftPseudoRandomCoverage) {
  // The §2 claim end-to-end: same circuit, same pattern budget, but with
  // test points inserted -> strictly higher pseudo-random fault coverage.
  CircuitProfile p = test::tiny_profile(204);
  p.num_comb_gates = 900;
  p.num_hard_blocks = 3;
  p.hard_block_width = 14;
  p.hard_classes_per_block = 10;
  p.hard_mode_bits = 5;

  auto plain = generate_circuit(lib(), p);
  auto pointed = generate_circuit(lib(), p);
  TpiOptions tpi_opts;
  tpi_opts.num_test_points = 3;
  DesignDB db(*pointed);
  insert_test_points(db, tpi_opts);

  LbistOptions opts;
  opts.max_patterns = 8192;
  CombModel plain_model(*plain, SeqView::kCapture);
  CombModel pointed_model(*pointed, SeqView::kCapture);
  const LbistResult before = run_lbist(plain_model, opts);
  const LbistResult after = run_lbist(pointed_model, opts);
  EXPECT_GT(after.final_coverage_pct, before.final_coverage_pct + 1.0);
}

}  // namespace
}  // namespace tpi
