#include "extraction/extraction.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"

namespace tpi {
namespace {

using test::lib;

// PI -> INV g -> net "out" -> INV g2 -> PO: "out" is a two-pin net.
struct TwoPinCircuit {
  std::unique_ptr<Netlist> nl;
  NetId out = kNoNet;
  RoutingResult routes;
};

TwoPinCircuit make_two_pin() {
  TwoPinCircuit tp;
  tp.nl = std::make_unique<Netlist>(&lib(), "two_pin");
  Netlist& nl = *tp.nl;
  const int a = nl.add_primary_input("a");
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellId g = nl.add_cell(inv, "g");
  nl.connect(g, 0, nl.pi_net(a));
  tp.out = nl.add_net("out");
  nl.connect(g, inv->output_pin, tp.out);
  const CellId g2 = nl.add_cell(inv, "g2");
  nl.connect(g2, 0, tp.out);
  const NetId out2 = nl.add_net("out2");
  nl.connect(g2, inv->output_pin, out2);
  nl.add_primary_output("po", out2);

  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  tp.routes = route(nl, fp, pl);
  return tp;
}

TEST(ExtractionTest, TwoPinNetElmoreHandComputed) {
  // Verify Elmore against the closed form: edge of length L -> R = r*L,
  // C_total = c*L + C_pin, delay = R * (C_far_half + C_pin) + ... with a
  // single pi segment: delay = r*L * (c*L/2 + C_pin) * 1e-3 ps.
  const TwoPinCircuit tp = make_two_pin();
  const ExtractionResult px = extract(*tp.nl, tp.routes);

  const auto n = static_cast<std::size_t>(tp.out);
  const RouteTree& tree = tp.routes.nets[n];
  ASSERT_EQ(tree.node.size(), 2u);
  const double len = tree.length_um;
  const double pin_cap = lib().gate(CellFunc::kInv, 1)->pins[0].cap_ff;
  const double r = kRShortOhmPerUm, c = kCShortFfPerUm;
  EXPECT_NEAR(px.nets[n].wire_cap_ff, c * len, 1e-9);
  EXPECT_NEAR(px.nets[n].pin_cap_ff, pin_cap, 1e-9);
  EXPECT_NEAR(px.nets[n].total_cap_ff, c * len + pin_cap, 1e-9);
  ASSERT_EQ(px.nets[n].sink_elmore_ps.size(), 1u);
  const double expect = 1e-3 * (r * len) * (c * len / 2.0 + pin_cap);
  EXPECT_NEAR(px.nets[n].sink_elmore_ps[0], expect, 1e-6);
}

TEST(ExtractionTest, LongNetsUseThickMetal) {
  // Nets of at least 400 µm are promoted to the thick upper-metal class.
  // Stretch the two-pin net's one route edge to just below and to exactly
  // the threshold: below, it keeps the thin-metal constants; at 400 µm its
  // lower resistance makes it faster although it is longer.
  TwoPinCircuit tp = make_two_pin();
  const auto n = static_cast<std::size_t>(tp.out);
  RouteTree& tree = tp.routes.nets[n];
  ASSERT_EQ(tree.node.size(), 2u);
  auto extract_at = [&](double len) {
    tree.edge_um[1] = len;
    tree.length_um = len;
    return extract(*tp.nl, tp.routes).nets[n];
  };
  const NetParasitics below = extract_at(399.9);
  const NetParasitics at = extract_at(400.0);
  EXPECT_NEAR(below.wire_cap_ff, kCShortFfPerUm * 399.9, 1e-9);
  EXPECT_GT(std::abs(at.wire_cap_ff - kCShortFfPerUm * 400.0), 1e-3);
  ASSERT_EQ(below.sink_elmore_ps.size(), 1u);
  ASSERT_EQ(at.sink_elmore_ps.size(), 1u);
  EXPECT_LT(at.sink_elmore_ps[0], below.sink_elmore_ps[0]);
}

TEST(ExtractionTest, TotalCapIncludesAllSinkPins) {
  auto nl = test::make_small_comb();
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement pl = place(*nl, fp);
  const RoutingResult routes = route(*nl, fp, pl);
  const ExtractionResult px = extract(*nl, routes);
  // Net "a" feeds NOR.A and XOR.A.
  const NetId a = nl->pi_net(0);
  const double nor_a = lib().gate(CellFunc::kNor, 2)->pins[0].cap_ff;
  const double xor_a = lib().gate(CellFunc::kXor, 2)->pins[0].cap_ff;
  EXPECT_NEAR(px.nets[static_cast<std::size_t>(a)].pin_cap_ff, nor_a + xor_a, 1e-9);
  // Net "z" feeds XOR.B and the PO pad.
  const NetId z = nl->find_net("z");
  const double xor_b = lib().gate(CellFunc::kXor, 2)->pins[1].cap_ff;
  EXPECT_NEAR(px.nets[static_cast<std::size_t>(z)].pin_cap_ff, xor_b + kPoPadCapFf, 1e-9);
}

TEST(ExtractionTest, ElmoreMonotoneAlongPath) {
  // On multi-sink nets, a sink farther down the tree never has smaller
  // Elmore delay than the common-path prefix guarantees: all delays >= 0
  // and bounded by full-lumped worst case.
  auto nl = generate_circuit(lib(), test::tiny_profile(58));
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement pl = place(*nl, fp);
  const RoutingResult routes = route(*nl, fp, pl);
  const ExtractionResult px = extract(*nl, routes);
  for (std::size_t n = 0; n < nl->num_nets(); ++n) {
    const RouteTree& tree = routes.nets[n];
    const NetParasitics& p = px.nets[n];
    const double lumped_bound =
        1e-3 * 0.80 * tree.length_um * p.total_cap_ff + 1e-6;
    for (const double d : p.sink_elmore_ps) {
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, lumped_bound);
    }
  }
}

TEST(ExtractionTest, AggregateWireCap) {
  auto nl = generate_circuit(lib(), test::tiny_profile(59));
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement pl = place(*nl, fp);
  const RoutingResult routes = route(*nl, fp, pl);
  const ExtractionResult px = extract(*nl, routes);
  double sum = 0;
  for (const NetParasitics& p : px.nets) sum += p.wire_cap_ff;
  EXPECT_NEAR(px.total_wire_cap_ff, sum, 1e-6);
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace tpi
