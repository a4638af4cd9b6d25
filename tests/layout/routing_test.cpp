#include "layout/routing.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "extraction/extraction.hpp"

namespace tpi {
namespace {

using test::lib;

struct RoutedCircuit {
  std::unique_ptr<Netlist> nl;
  Floorplan fp;
  Placement pl;
  RoutingResult routes;
};

RoutedCircuit make_routed(std::uint64_t seed) {
  RoutedCircuit out;
  out.nl = generate_circuit(lib(), test::tiny_profile(seed));
  out.fp = make_floorplan(*out.nl, {});
  out.pl = place(*out.nl, out.fp);
  out.routes = route(*out.nl, out.fp, out.pl);
  return out;
}

TEST(RoutingTest, EveryDrivenNetHasATree) {
  const RoutedCircuit rc = make_routed(81);
  ASSERT_EQ(rc.routes.num_nets(), rc.nl->num_nets());
  for (std::size_t n = 0; n < rc.nl->num_nets(); ++n) {
    const Net& net = rc.nl->net(static_cast<NetId>(n));
    if (!net.driver.valid() && !net.driven_by_pi()) continue;
    const RouteTree tree = rc.routes.tree(n);
    EXPECT_EQ(tree.node.size(), 1 + net.fanout()) << net.name;
  }
}

TEST(RoutingTest, TreesAreConnectedToRoot) {
  const RoutedCircuit rc = make_routed(82);
  for (std::size_t n = 0; n < rc.routes.num_nets(); ++n) {
    const RouteTree tree = rc.routes.tree(n);
    for (std::size_t v = 1; v < tree.node.size(); ++v) {
      // Walk to the root; must terminate at node 0.
      int u = static_cast<int>(v);
      int guard = 0;
      while (tree.parent[static_cast<std::size_t>(u)] >= 0 && guard++ < 1000) {
        u = tree.parent[static_cast<std::size_t>(u)];
      }
      EXPECT_EQ(u, 0);
    }
  }
}

TEST(RoutingTest, TreeLengthAtLeastHalfHpwlAndBounded) {
  const RoutedCircuit rc = make_routed(83);
  for (std::size_t n = 0; n < rc.nl->num_nets(); ++n) {
    const Net& net = rc.nl->net(static_cast<NetId>(n));
    if (!net.driver.valid() && !net.driven_by_pi()) continue;
    const RouteTree tree = rc.routes.tree(n);
    HpwlAccumulator acc;
    for (const Point& p : tree.node) acc.add(p);
    // A spanning tree is at least half the bounding-box half-perimeter and
    // at most fanout times it (Manhattan geometry).
    EXPECT_GE(tree.length_um + 1e-9, acc.value() / 2.0);
    if (tree.node.size() >= 2) {
      EXPECT_LE(tree.length_um,
                static_cast<double>(tree.node.size()) * (acc.value() + 1.0) + 1e-9);
    }
  }
}

TEST(RoutingTest, PathToRootMatchesEdgeSum) {
  const RoutedCircuit rc = make_routed(84);
  for (std::size_t n = 0; n < rc.routes.num_nets(); ++n) {
    const RouteTree tree = rc.routes.tree(n);
    double total = 0.0;
    for (std::size_t v = 1; v < tree.node.size(); ++v) {
      total += tree.edge_um[v];
      EXPECT_GE(tree.path_to_root_um(static_cast<int>(v)), tree.edge_um[v] - 1e-9);
    }
    EXPECT_NEAR(tree.length_um, total, 1e-6);
  }
}

TEST(RoutingTest, TotalLengthAggregates) {
  const RoutedCircuit rc = make_routed(85);
  double sum = 0.0;
  for (std::size_t n = 0; n < rc.routes.num_nets(); ++n) sum += rc.routes.tree(n).length_um;
  EXPECT_NEAR(rc.routes.total_wire_length_um, sum, 1e-6);
  EXPECT_GE(rc.routes.detour_length_um, 0.0);
}

TEST(RoutingTest, CongestionCausesDetours) {
  // Routing capacity is a fixed 165 tracks per gcell edge, and a larger
  // circuit at the same row utilisation has longer nets crossing each
  // gcell: s38417 at scale 0.1 routes without overflow, at scale 0.25 it
  // overflows.
  auto route_profile = [](const CircuitProfile& p) {
    auto nl = generate_circuit(lib(), p);
    const Floorplan fp = make_floorplan(*nl, {});
    const Placement pl = place(*nl, fp);
    return route(*nl, fp, pl);
  };
  const RoutingResult easy = route_profile(test::small_profile(86));
  CircuitProfile larger = scaled(s38417_profile(), 0.25);
  larger.seed = 86;
  const RoutingResult hard = route_profile(larger);
  EXPECT_GT(hard.overflowed_crossings, easy.overflowed_crossings);
  EXPECT_GT(hard.detour_length_um, easy.detour_length_um);
  EXPECT_GT(hard.total_wire_length_um, easy.total_wire_length_um);
}

TEST(RoutingTest, TwoPinNetIsManhattanExact) {
  Netlist nl(&lib(), "two_pin");
  const int a = nl.add_primary_input("a");
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId g = nl.add_cell(buf, "g");
  nl.connect(g, 0, nl.pi_net(a));
  const NetId out = nl.add_net("out");
  nl.connect(g, buf->output_pin, out);
  nl.add_primary_output("po", out);
  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  const RoutingResult routes = route(nl, fp, pl);
  const RouteTree tree = routes.tree(static_cast<std::size_t>(nl.pi_net(a)));
  ASSERT_EQ(tree.node.size(), 2u);
  EXPECT_NEAR(tree.length_um, manhattan(tree.node[0], tree.node[1]) +
                                  (tree.length_um - manhattan(tree.node[0], tree.node[1])),
              1e-9);  // base length plus any detour charge
  EXPECT_GE(tree.length_um, manhattan(tree.node[0], tree.node[1]) - 1e-9);
}

// Bit-for-bit equality of two extractions: every net's capacitances, the
// total and every per-pin Elmore delay.
void expect_same_bits(const ExtractionResult& a, const ExtractionResult& b) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  ASSERT_EQ(a.pin_elmore_ps.size(), b.pin_elmore_ps.size());
  EXPECT_EQ(std::memcmp(a.nets.data(), b.nets.data(), a.nets.size() * sizeof a.nets[0]), 0);
  EXPECT_EQ(std::memcmp(a.pin_elmore_ps.data(), b.pin_elmore_ps.data(),
                        a.pin_elmore_ps.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&a.total_wire_cap_ff, &b.total_wire_cap_ff, sizeof(double)), 0);
}

TEST(RoutingTest, MovedAndCopiedResultsExtractLikeAFreshRoute) {
  // Trees are views into the result's store: a result moved into an
  // optional (as FlowEngine keeps it) or copied, with the original gone,
  // must read exactly what a fresh route() reads.
  const RoutedCircuit rc = make_routed(87);
  const ExtractionResult fresh = extract(*rc.nl, route(*rc.nl, rc.fp, rc.pl));
  std::optional<RoutingResult> moved;
  moved = route(*rc.nl, rc.fp, rc.pl);
  expect_same_bits(extract(*rc.nl, *moved), fresh);
  std::optional<RoutingResult> copied;
  {
    const RoutingResult original = route(*rc.nl, rc.fp, rc.pl);
    copied = original;
  }
  expect_same_bits(extract(*rc.nl, *copied), fresh);
  ASSERT_EQ(copied->num_nets(), rc.nl->num_nets());
  for (std::size_t n = 0; n < copied->num_nets(); ++n) {
    EXPECT_EQ(copied->tree(n).length_um, rc.routes.tree(n).length_um) << n;
  }
}

}  // namespace
}  // namespace tpi
