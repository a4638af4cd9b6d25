#include "layout/clock_tree.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"

namespace tpi {
namespace {

using test::lib;

struct CtsCircuit {
  std::unique_ptr<Netlist> nl;
  Floorplan fp;
  Placement pl;
  CtsReport report;
};

// Sinks per clock buffer stage (clock_tree.cpp).
constexpr std::size_t kMaxFanout = 18;

// A tiny circuit with 96 flip-flops: about five times the fanout limit, so
// its one domain gets several leaf buffers.
CtsCircuit make_cts(std::uint64_t seed) {
  CircuitProfile p = test::tiny_profile(seed);
  p.num_ffs = 96;
  CtsCircuit out;
  out.nl = generate_circuit(lib(), p);
  out.fp = make_floorplan(*out.nl, {});
  out.pl = place(*out.nl, out.fp);
  out.report = synthesize_clock_trees(*out.nl, out.fp, out.pl);
  return out;
}

TEST(ClockTreeTest, BuildsBuffersAndStaysValid) {
  const CtsCircuit cc = make_cts(91);
  EXPECT_GT(cc.report.buffers_added, 0);
  EXPECT_EQ(cc.report.domains, 1);
  EXPECT_TRUE(cc.nl->validate().empty()) << cc.nl->validate();
}

TEST(ClockTreeTest, EveryFlipFlopStillClocked) {
  const CtsCircuit cc = make_cts(92);
  for (const CellId ff : cc.nl->flip_flops()) {
    const CellInst& inst = cc.nl->cell(ff);
    const NetId ck = inst.conn[static_cast<std::size_t>(inst.spec->clock_pin)];
    ASSERT_NE(ck, kNoNet);
    EXPECT_TRUE(cc.nl->is_clock_net(ck));
  }
}

TEST(ClockTreeTest, FanoutBoundedEverywhere) {
  const CtsCircuit cc = make_cts(93);
  ASSERT_GT(cc.nl->flip_flops().size(), kMaxFanout);
  // The root net and every buffer output respect the limit.
  const NetId root = cc.nl->pi_net(cc.nl->clock_pis()[0]);
  EXPECT_LE(cc.nl->net(root).fanout(), kMaxFanout);
  for (const CellId buf : cc.report.new_cells) {
    EXPECT_LE(cc.nl->net(cc.nl->cell(buf).output_net()).fanout(), kMaxFanout);
  }
}

TEST(ClockTreeTest, AllSinksReachableFromRoot) {
  const CtsCircuit cc = make_cts(94);
  const NetId root = cc.nl->pi_net(cc.nl->clock_pis()[0]);
  std::size_t reached = 0;
  std::vector<NetId> frontier{root};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (const PinRef& s : cc.nl->net(frontier[head]).sinks) {
      const CellInst& inst = cc.nl->cell(s.cell);
      if (inst.spec->func == CellFunc::kClkBuf) {
        frontier.push_back(inst.output_net());
      } else if (s.pin == inst.spec->clock_pin) {
        ++reached;
      }
    }
  }
  EXPECT_EQ(reached, cc.nl->flip_flops().size());
}

TEST(ClockTreeTest, BuffersAreEcoPlaced) {
  const CtsCircuit cc = make_cts(95);
  for (const CellId buf : cc.report.new_cells) {
    EXPECT_GE(cc.pl.row[static_cast<std::size_t>(buf)], 0);
  }
}

TEST(ClockTreeTest, SmallDomainLeftAlone) {
  auto nl = test::make_shift_register();  // 2 sinks only
  const Floorplan fp = make_floorplan(*nl, {});
  Placement pl = place(*nl, fp);
  const CtsReport report = synthesize_clock_trees(*nl, fp, pl);
  EXPECT_EQ(report.buffers_added, 0);
  EXPECT_EQ(report.domains, 0);
}

TEST(ClockTreeTest, MultiDomainBuildsSeparateTrees) {
  CircuitProfile p = test::tiny_profile(96);
  p.num_clock_domains = 2;
  p.domain_fraction = {0.5, 0.5};
  p.num_ffs = 96;  // ~48 sinks per domain, over the fanout limit in both
  auto nl = generate_circuit(lib(), p);
  const Floorplan fp = make_floorplan(*nl, {});
  Placement pl = place(*nl, fp);
  const CtsReport report = synthesize_clock_trees(*nl, fp, pl);
  EXPECT_EQ(report.domains, 2);
  EXPECT_TRUE(nl->validate().empty());
}

}  // namespace
}  // namespace tpi
