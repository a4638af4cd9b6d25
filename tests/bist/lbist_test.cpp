#include "bist/lbist.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"

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

TEST(LfsrTest, NextWordMatchesBitSerial) {
  // next_word() jumps 64 steps through its tables; next_bit() is the
  // one-step reference. Both must draw the same words and leave the same
  // state behind, from every byte pattern of the state: the all-ones seed
  // reads the last entry of every byte table. The LBIST default (degree
  // 32) runs 65,536 words.
  for (const int degree : {8, 16, 24, 32, 48, 64}) {
    const std::uint64_t all_ones =
        degree == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << degree) - 1;
    const int words = degree == 32 ? 65536 : 300;
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xACE1},
                                     std::uint64_t{0x9E3779B97F4A7C15}, all_ones}) {
      SCOPED_TRACE(testing::Message() << "degree " << degree << " seed " << seed);
      Lfsr word(degree, seed), bits(degree, seed);
      ASSERT_EQ(word.state(), bits.state());
      for (int n = 0; n < words; ++n) {
        Word ref = 0;
        for (int k = 0; k < kWordBits; ++k) {
          if (bits.next_bit()) ref |= Word{1} << k;
        }
        ASSERT_EQ(word.next_word(), ref) << "word " << n;
        ASSERT_EQ(word.state(), bits.state()) << "word " << n;
      }
      EXPECT_EQ(word.state(), bits.state());
    }
  }
}

TEST(LfsrTest, RejectsDegreesWithoutPolynomial) {
  // Degrees with no table entry used to get a zero or non-primitive
  // feedback mask: Lfsr(12) drained to the all-zero state in 20 steps.
  for (const int degree : {0, 7, 12, 20, 31, 33, 63, 65}) {
    SCOPED_TRACE(degree);
    EXPECT_THROW(Lfsr{degree}, std::invalid_argument);
    EXPECT_THROW(Misr{degree}, std::invalid_argument);
  }
  for (const int degree : {8, 16, 24, 32, 48, 64}) {
    EXPECT_NO_THROW(Lfsr{degree});
    EXPECT_NO_THROW(Misr{degree});
  }
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

// New pins also fix the pattern count and the final coverage.
std::string session_pin(const LbistResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " n=%d fc=%a", r.patterns_applied, r.final_coverage_pct);
  return lbist_fingerprint(r) + buf;
}

TEST(LbistTest, EarlySessionStopPinned) {
  // Only five nets qualify (arrival > 300 ps), each with transition faults
  // that every session detects: the live list empties long before the
  // budget, after 1856 patterns (a multiple of 64 but not of 512), and the
  // stop between two report steps adds no curve point.
  auto nl = generate_circuit(lib(), test::tiny_profile(207));
  CombModel model(*nl, SeqView::kCapture);
  std::vector<double> arrival(nl->num_nets(), 0.0);
  for (const char* name : {"n8", "n42", "n74", "n131", "n187"}) {
    const NetId net = nl->find_net(name);
    ASSERT_NE(net, kNoNet) << name;
    arrival[static_cast<std::size_t>(net)] = 400.0;
  }
  LbistOptions opts;
  opts.max_patterns = 8192;
  opts.report_every = 256;
  opts.fault_model = FaultModel::kTransition;
  opts.capture_period_ps = 500.0;
  opts.fault_size_ps = 200.0;
  opts.arrival_ps = &arrival;
  const LbistResult r = run_lbist(model, opts);
  EXPECT_LT(r.patterns_applied, opts.max_patterns);
  EXPECT_NE(r.patterns_applied % 512, 0);
  EXPECT_EQ(session_pin(r),
            "256:0x1.a459fda1bf1cap+1 512:0x1.c7dfcaf3ec1b8p+1 768:0x1.d9a2b19d029aep+1 "
            "1024:0x1.d9a2b19d029aep+1 1280:0x1.eb659846191a5p+1 1536:0x1.eb659846191a5p+1 "
            "1792:0x1.f73cdcb6d2c49p+1 det=36 qual=36 sig=0c5fb1f9c140f7d7 n=1856 "
            "fc=0x1.fd287eef2f99bp+1");
}

TEST(LbistTest, UnalignedBudgetSessionPinned) {
  // A budget that is no multiple of 64 runs to the next full batch; the
  // curve reports every 192 patterns and once more at the end.
  auto nl = generate_circuit(lib(), test::tiny_profile(208));
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 1000;
  opts.report_every = 192;
  const LbistResult r = run_lbist(model, opts);
  EXPECT_EQ(r.patterns_applied, 1024);
  EXPECT_EQ(session_pin(r),
            "192:0x1.59fd431488e6p+6 384:0x1.61a778ed4a61ap+6 576:0x1.6c2bceb771a03p+6 "
            "768:0x1.6cb4b4b4b4b4bp+6 960:0x1.7268f497803a7p+6 1024:0x1.7296969696969p+6 "
            "det=2029 qual=2244 sig=7ac79390591dffbc n=1024 fc=0x1.7296969696969p+6");
}

TEST(LbistTest, EveryBatchCurvePinned) {
  // A curve point after every 64-pattern batch: each batch's coverage
  // gain shows, so a detection credited to the wrong batch of a
  // super-batch changes the pin even where the coarser pins cannot see it.
  auto nl = generate_circuit(lib(), test::tiny_profile(209));
  CombModel model(*nl, SeqView::kCapture);
  std::vector<double> arrival(nl->num_nets(), 400.0);
  LbistOptions opts;
  opts.max_patterns = 1536;
  opts.report_every = 64;
  opts.fault_model = FaultModel::kTransition;
  opts.capture_period_ps = 500.0;
  opts.fault_size_ps = 200.0;
  opts.arrival_ps = &arrival;
  EXPECT_EQ(session_pin(run_lbist(model, opts)),
            "64:0x1.f6c5cbf2c01e5p+5 128:0x1.0efacb799ca0ep+6 192:0x1.174c2f51dcfbcp+6 "
            "256:0x1.1d07191458f61p+6 320:0x1.21a617a8ee7dep+6 384:0x1.243c91beb2de6p+6 "
            "448:0x1.27eef7025db17p+6 512:0x1.29f77b812ed8cp+6 576:0x1.2a26cd5e2a968p+6 "
            "640:0x1.2ae414d2198d8p+6 704:0x1.2b720a690cc6cp+6 768:0x1.2cp+6 832:0x1.2cp+6 "
            "896:0x1.2cp+6 960:0x1.2c5ea3b9f77b8p+6 1024:0x1.2e37d65bcce5p+6 "
            "1088:0x1.2f53c189b3579p+6 1152:0x1.30405ada9e0c5p+6 1216:0x1.30405ada9e0c5p+6 "
            "1280:0x1.30ce507191459p+6 1344:0x1.315c4608847edp+6 1408:0x1.315c4608847edp+6 "
            "1472:0x1.3248df596f339p+6 1536:0x1.3248df596f339p+6 det=1607 qual=2114 "
            "sig=ae88d01632ca6082 n=1536 fc=0x1.3248df596f339p+6");
}

TEST(LbistTest, RejectsInvalidOptions) {
  auto nl = generate_circuit(lib(), test::tiny_profile(208));
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 256;
  for (const int every : {0, -64}) {
    opts.report_every = every;  // used to divide by zero
    EXPECT_THROW(run_lbist(model, opts), std::invalid_argument) << every;
  }
  opts.report_every = 64;
  opts.max_patterns = -1;
  EXPECT_THROW(run_lbist(model, opts), std::invalid_argument);

  // A zero budget applies nothing.
  opts.max_patterns = 0;
  const LbistResult r = run_lbist(model, opts);
  EXPECT_EQ(r.patterns_applied, 0);
  EXPECT_TRUE(r.coverage_curve.empty());
  EXPECT_EQ(r.detected, 0);
}

TEST(LbistTest, PublishesGradingCounters) {
  auto nl = generate_circuit(lib(), test::tiny_profile(208));
  CombModel model(*nl, SeqView::kCapture);
  LbistOptions opts;
  opts.max_patterns = 1024;
  MetricsRegistry registry;
  {
    const ScopedMetricsRegistry scope(registry);
    run_lbist(model, opts);
  }
  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name : {"lbist.sim.faults_graded", "lbist.sim.node_evals",
                           "lbist.sim.events"}) {
    const MetricValue* v = snap.find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_GT(v->count, 0u) << name;
  }
}

TEST(LbistTest, PaperScaleAtSpeedPinned) {
  // The flow's at-speed pair on two paper circuits at a quarter scale and
  // 1 % TP, after TPI, layout and STA: a transition session clocked at
  // t_cp and a control session at kAtSpeedSlowFactor x t_cp, both with a
  // defect of one rated period.
  struct Golden {
    CircuitProfile profile;
    const char* fast;
    const char* slow;
  };
  const Golden s38417{
      scaled(s38417_profile(), 0.25),
      "1024:0x1.05e34b09a1288p+6 2048:0x1.0b866c8bd9463p+6 3072:0x1.0e40a121df3e8p+6 "
      "4096:0x1.10d917b28c6b7p+6 5120:0x1.11cd133bac02p+6 6144:0x1.1335db9c3a096p+6 "
      "7168:0x1.148747d1b1fa4p+6 8192:0x1.1537c7501ffa3p+6 9216:0x1.15ed77bbaf548p+6 "
      "10240:0x1.167ed1ab55365p+6 11264:0x1.1717f4fead1fbp+6 12288:0x1.181e1bc5c1727p+6 "
      "13312:0x1.187e24e8aa79fp+6 14336:0x1.18e0c682242eap+6 15360:0x1.198c151370d43p+6 "
      "16384:0x1.19d4c20b43c52p+6 det=25087 qual=36514 sig=f89ca1ca13385d60 n=16384 "
      "fc=0x1.19d4c20b43c52p+6",
      "det=0 qual=0 sig=aa4fede695deadf0 n=64 fc=0x1.b79f71f893a2bp+2"};
  const Golden p26909{
      scaled(p26909_profile(), 0.25),
      "1024:0x1.cafcf70102ffbp+5 2048:0x1.d29089cfd2101p+5 3072:0x1.d54198ea225cap+5 "
      "4096:0x1.d73c5d968b788p+5 5120:0x1.d86e9d3076453p+5 6144:0x1.d9a0dcca6111ep+5 "
      "7168:0x1.da77f72d58463p+5 8192:0x1.db614c34e6991p+5 9216:0x1.dbef7c0581538p+5 "
      "10240:0x1.dc6b713184ef8p+5 11264:0x1.dceeb105c4fe1p+5 12288:0x1.dd87d0d2ba647p+5 "
      "13312:0x1.de2f85f028affp+5 14336:0x1.de69db320c44ap+5 15360:0x1.dea43073efd96p+5 "
      "16384:0x1.dee975b22e19fp+5 det=27678 qual=48820 sig=6a5f139656334c89 n=16384 "
      "fc=0x1.dee975b22e19fp+5",
      "det=0 qual=0 sig=a31eddf58fb69bb1 n=64 fc=0x1.52f26459de8cbp+3"};
  for (const Golden& g : {s38417, p26909}) {
    SCOPED_TRACE(g.profile.name);
    FlowOptions fo;
    fo.tp_percent = 1.0;
    FlowEngine engine(lib(), g.profile, fo);
    const FlowResult& res = engine.run(StageMask::all().without(Stage::kReorderAtpg));
    ASSERT_TRUE(res.sta.worst.valid);
    const double t_cp = res.sta.worst.t_cp_ps;
    LbistOptions opts;
    opts.fault_model = FaultModel::kTransition;
    opts.capture_period_ps = t_cp;
    opts.fault_size_ps = t_cp;
    opts.arrival_ps = &res.sta.arrival_ps;
    const CombModel& model = engine.design_db().comb_model(SeqView::kCapture);
    EXPECT_EQ(session_pin(run_lbist(model, opts)), g.fast);
    opts.capture_period_ps = kAtSpeedSlowFactor * t_cp;
    EXPECT_EQ(session_pin(run_lbist(model, opts)), g.slow);
  }
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
