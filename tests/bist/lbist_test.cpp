#include "bist/lbist.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

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

// Every output field of a session, doubles as exact hex floats, so a pin
// on the string is a byte-level pin on the result.
std::string lbist_fingerprint(const LbistResult& r) {
  std::string out;
  char buf[96];
  for (const auto& [patterns, pct] : r.coverage_curve) {
    std::snprintf(buf, sizeof buf, "%d:%a ", patterns, pct);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "det=%lld qual=%lld sig=%016llx",
                static_cast<long long>(r.detected), static_cast<long long>(r.qualified),
                static_cast<unsigned long long>(r.signature));
  return out + buf;
}

TEST(LbistTest, StuckAtSessionPinned) {
  auto nl = generate_circuit(lib(), test::tiny_profile(205));
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 2048;
  opts.report_every = 256;
  EXPECT_EQ(lbist_fingerprint(run_lbist(model, opts)),
            "256:0x1.5de8af5466962p+6 512:0x1.64a600eebf2f2p+6 768:0x1.6d06fe99e1396p+6 "
            "1024:0x1.6d06fe99e1396p+6 1280:0x1.6d92e29f79b47p+6 1536:0x1.6e1ec6a5122f9p+6 "
            "1792:0x1.6eaaaaaaaaaabp+6 2048:0x1.6f07ed5910521p+6 "
            "det=1965 qual=2196 sig=22dba1d502f5dc45");
}

TEST(LbistTest, QualifiedTransitionSessionPinned) {
  auto nl = generate_circuit(lib(), test::tiny_profile(206));
  CombModel model(*nl, SeqView::kCapture);
  // Sites with arrival > 300 ps qualify at T = 500 ps with a 200 ps defect.
  std::vector<double> arrival(nl->num_nets());
  for (std::size_t n = 0; n < arrival.size(); ++n) {
    arrival[n] = 100.0 * static_cast<double>(n % 7);
  }
  LbistOptions opts;
  opts.max_patterns = 2048;
  opts.report_every = 256;
  opts.fault_model = FaultModel::kTransition;
  opts.capture_period_ps = 500.0;
  opts.fault_size_ps = 200.0;
  opts.arrival_ps = &arrival;
  EXPECT_EQ(lbist_fingerprint(run_lbist(model, opts)),
            "256:0x1.a6f066c45bc1ap+4 512:0x1.b824b3d7a092dp+4 768:0x1.ce5d9765d9766p+4 "
            "1024:0x1.d2aaaaaaaaaabp+4 1280:0x1.d866c45bc19b1p+4 1536:0x1.db44d1344d134p+4 "
            "1792:0x1.e04967af4125ap+4 2048:0x1.e1b86e1b86e1cp+4 "
            "det=622 qual=944 sig=c6ec4fd49e6af869");
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
