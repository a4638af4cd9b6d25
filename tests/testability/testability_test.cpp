#include "testability/testability.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

class SmallCombTestability : public ::testing::Test {
 protected:
  void SetUp() override {
    nl_ = test::make_small_comb();
    model_ = std::make_unique<CombModel>(*nl_, SeqView::kCapture);
    t_ = analyze_testability(*model_);
  }
  std::unique_ptr<Netlist> nl_;
  std::unique_ptr<CombModel> model_;
  TestabilityResult t_;
};

TEST_F(SmallCombTestability, ScoapControllabilityOfInputsIsOne) {
  for (int i = 0; i < 3; ++i) {
    const auto n = static_cast<std::size_t>(nl_->pi_net(i));
    EXPECT_EQ(t_.cc0[n], 1.0f);
    EXPECT_EQ(t_.cc1[n], 1.0f);
  }
}

TEST_F(SmallCombTestability, ScoapNorGateValues) {
  // y = NOR(a, b): CC1(y) = min(CC1... by NOR rule: cc1 = sum cc0 + 1 = 3;
  // cc0 = min cc1 + 1 = 2.
  const auto y = static_cast<std::size_t>(nl_->find_net("y"));
  EXPECT_EQ(t_.cc1[y], 3.0f);
  EXPECT_EQ(t_.cc0[y], 2.0f);
}

TEST_F(SmallCombTestability, ScoapAndGateValues) {
  // z = AND(c, y): cc1 = cc1(c) + cc1(y) + 1 = 1 + 3 + 1 = 5;
  // cc0 = min(cc0(c), cc0(y)) + 1 = 2.
  const auto z = static_cast<std::size_t>(nl_->find_net("z"));
  EXPECT_EQ(t_.cc1[z], 5.0f);
  EXPECT_EQ(t_.cc0[z], 2.0f);
}

TEST_F(SmallCombTestability, ObservabilityOfOutputsIsZeroCost) {
  const auto z = static_cast<std::size_t>(nl_->find_net("z"));
  const auto w = static_cast<std::size_t>(nl_->find_net("w"));
  EXPECT_EQ(t_.co[z], 0.0f);
  EXPECT_EQ(t_.co[w], 0.0f);
  EXPECT_EQ(t_.obs[z], 1.0f);
  EXPECT_EQ(t_.obs[w], 1.0f);
}

TEST_F(SmallCombTestability, CopSignalProbabilitiesExact) {
  // p1(y) = P(NOR(a,b)=1) = 0.25; p1(z) = p1(c)*p1(y) = 0.125;
  // p1(w) = p1(a) XOR p1(z) = 0.5*(1-0.125) + 0.5*0.125 = 0.5.
  EXPECT_NEAR(t_.p1[static_cast<std::size_t>(nl_->find_net("y"))], 0.25f, 1e-6f);
  EXPECT_NEAR(t_.p1[static_cast<std::size_t>(nl_->find_net("z"))], 0.125f, 1e-6f);
  EXPECT_NEAR(t_.p1[static_cast<std::size_t>(nl_->find_net("w"))], 0.5f, 1e-6f);
}

TEST_F(SmallCombTestability, CopObservabilityThroughAnd) {
  // y observed through z = AND(c, y) needs c=1: obs(y) = obs(z)*p1(c) = 0.5.
  const auto y = static_cast<std::size_t>(nl_->find_net("y"));
  EXPECT_NEAR(t_.obs[y], 0.5f, 1e-6f);
  // CO(y) = CO(z) + CC1(c) + 1 = 0 + 1 + 1 = 2.
  EXPECT_EQ(t_.co[y], 2.0f);
}

TEST_F(SmallCombTestability, DetectionProbabilities) {
  const NetId y = nl_->find_net("y");
  // sa0 at y: need y=1 (p 0.25) and observation (0.5) -> 0.125.
  EXPECT_NEAR(t_.detect_prob_sa0(y), 0.125f, 1e-6f);
  EXPECT_NEAR(t_.detect_prob_sa1(y), 0.375f, 1e-6f);
  EXPECT_NEAR(t_.detect_prob_min(y), 0.125f, 1e-6f);
}

// Property: COP p1 approximates the measured signal probability under
// random stimulus on generated circuits.
TEST(TestabilityTest, CopMatchesSimulatedProbabilities) {
  auto nl = generate_circuit(lib(), test::tiny_profile(5));
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  ParallelSim sim(model);
  Rng rng(99);
  std::vector<double> ones(nl->num_nets(), 0.0);
  const int batches = 200;
  for (int b = 0; b < batches; ++b) {
    std::vector<Word> words(model.input_nets().size());
    for (auto& w : words) w = rng.next_u64();
    sim.load_inputs(words);
    sim.run();
    for (std::size_t n = 0; n < nl->num_nets(); ++n) {
      ones[n] += static_cast<double>(std::popcount(sim.value(static_cast<NetId>(n))));
    }
  }
  const double total = batches * 64.0;
  // COP assumes independence, so allow loose bounds; most nets must agree.
  int checked = 0, close = 0;
  for (const CombNode& node : model.nodes()) {
    if (node.out == kNoNet) continue;
    const auto n = static_cast<std::size_t>(node.out);
    ++checked;
    if (std::abs(ones[n] / total - t.p1[n]) < 0.15) ++close;
  }
  ASSERT_GT(checked, 50);
  EXPECT_GT(static_cast<double>(close) / checked, 0.85);
}

TEST(TestabilityTest, ScanCellBoundariesResetTestability) {
  // A TSFF in capture view exposes a fully controllable/observable point.
  auto nl = test::make_shift_register();
  const CellId f0 = nl->find_cell("f0");
  nl->replace_spec(f0, lib().by_name("TSFF_X1"));
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const NetId q0 = nl->find_net("q0");
  const auto q = static_cast<std::size_t>(q0);
  EXPECT_EQ(t.cc0[q], 1.0f);
  EXPECT_EQ(t.cc1[q], 1.0f);
  const NetId d_net = nl->cell(f0).conn[static_cast<std::size_t>(nl->cell(f0).spec->d_pin)];
  EXPECT_EQ(t.co[static_cast<std::size_t>(d_net)], 0.0f);
  EXPECT_EQ(t.obs[static_cast<std::size_t>(d_net)], 1.0f);
}

TEST(TestabilityTest, CopNodeP1Helper) {
  CombNode node;
  node.func = CellFunc::kNand;
  node.num_inputs = 2;
  node.in[0] = 0;
  node.in[1] = 1;
  const float p[2] = {0.5f, 0.25f};
  EXPECT_NEAR(cop_node_p1(node, p), 1.0f - 0.125f, 1e-6f);
  node.func = CellFunc::kXor;
  EXPECT_NEAR(cop_node_p1(node, p), 0.5f * 0.75f + 0.5f * 0.25f, 1e-6f);
}

}  // namespace
}  // namespace tpi
