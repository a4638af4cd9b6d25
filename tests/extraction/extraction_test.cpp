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
  CellId sink = kNoCell;  ///< g2, whose pin 0 is the net's one sink
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
  tp.sink = nl.add_cell(inv, "g2");
  nl.connect(tp.sink, 0, tp.out);
  const NetId out2 = nl.add_net("out2");
  nl.connect(tp.sink, inv->output_pin, out2);
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
  const RouteTree tree = tp.routes.tree(n);
  ASSERT_EQ(tree.node.size(), 2u);
  const double len = tree.length_um;
  const double pin_cap = lib().gate(CellFunc::kInv, 1)->pins[0].cap_ff;
  const double r = kRShortOhmPerUm, c = kCShortFfPerUm;
  EXPECT_NEAR(px.nets[n].wire_cap_ff, c * len, 1e-9);
  EXPECT_NEAR(px.nets[n].pin_cap_ff, pin_cap, 1e-9);
  EXPECT_NEAR(px.nets[n].total_cap_ff, c * len + pin_cap, 1e-9);
  ASSERT_EQ(px.pin_elmore_ps.size(), tp.nl->num_cells() * kMaxCellPins);
  const double expect = 1e-3 * (r * len) * (c * len / 2.0 + pin_cap);
  EXPECT_NEAR(px.elmore_ps(tp.sink, 0), expect, 1e-6);
}

TEST(ExtractionTest, LongNetsUseThickMetal) {
  // Nets of at least 400 µm are promoted to the thick upper-metal class.
  // Stretch the two-pin net's one route edge to just below and to exactly
  // the threshold: below, it keeps the thin-metal constants; at 400 µm its
  // lower resistance makes it faster although it is longer.
  TwoPinCircuit tp = make_two_pin();
  const auto n = static_cast<std::size_t>(tp.out);
  const RouteTreeEdit tree = tp.routes.edit_tree(n);
  ASSERT_EQ(tree.node.size(), 2u);
  auto extract_at = [&](double len) {
    tree.edge_um[1] = len;
    tree.length_um = len;
    return extract(*tp.nl, tp.routes);
  };
  const ExtractionResult below = extract_at(399.9);
  const ExtractionResult at = extract_at(400.0);
  EXPECT_NEAR(below.nets[n].wire_cap_ff, kCShortFfPerUm * 399.9, 1e-9);
  EXPECT_GT(std::abs(at.nets[n].wire_cap_ff - kCShortFfPerUm * 400.0), 1e-3);
  ASSERT_EQ(tp.nl->net(tp.out).sinks.size(), 1u);
  EXPECT_LT(at.elmore_ps(tp.sink, 0), below.elmore_ps(tp.sink, 0));
}

// Elmore delay of every route-tree node from the definition: the sum, over
// the edges on the node's root path, of each edge's resistance times the
// capacitance it charges (its far half plus every node cap and edge below).
std::vector<double> reference_elmore(const RouteTree& tree, const std::vector<double>& node_cap,
                                     double r_per_um, double c_per_um) {
  const std::size_t n = tree.node.size();
  auto in_subtree = [&](std::size_t w, std::size_t v) {
    for (int u = static_cast<int>(w); u >= 0; u = tree.parent[static_cast<std::size_t>(u)]) {
      if (static_cast<std::size_t>(u) == v) return true;
    }
    return false;
  };
  std::vector<double> charged(n, 0.0);
  for (std::size_t v = 1; v < n; ++v) {
    charged[v] = c_per_um * tree.edge_um[v] / 2.0;
    for (std::size_t w = 1; w < n; ++w) {
      if (!in_subtree(w, v)) continue;
      charged[v] += node_cap[w] + (w == v ? 0.0 : c_per_um * tree.edge_um[w]);
    }
  }
  std::vector<double> delay(n, 0.0);
  for (std::size_t v = 1; v < n; ++v) {
    for (int u = static_cast<int>(v); u > 0; u = tree.parent[static_cast<std::size_t>(u)]) {
      const auto e = static_cast<std::size_t>(u);
      delay[v] += 1e-3 * r_per_um * tree.edge_um[e] * charged[e];
    }
  }
  return delay;
}

TEST(ExtractionTest, PerPinElmoreIsItsOwnRouteNode) {
  // Net "n" feeds both inputs of one NAND2, an INV and a PO pad. Its route
  // tree is replaced by a hand-built one in which the NAND2's B pin hangs
  // below its A pin, so the two pins of one cell see different delays.
  Netlist nl(&lib(), "multi_sink");
  const NetId a = nl.pi_net(nl.add_primary_input("a"));
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellSpec* nand = lib().gate(CellFunc::kNand, 2);
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellId drv = nl.add_cell(buf, "drv");
  nl.connect(drv, 0, a);
  const NetId n = nl.add_net("n");
  nl.connect(drv, buf->output_pin, n);
  const CellId g = nl.add_cell(nand, "g");
  nl.connect(g, 0, n);
  nl.connect(g, 1, n);
  const CellId h = nl.add_cell(inv, "h");
  nl.connect(h, 0, n);
  nl.add_primary_output("po_n", n);
  for (const CellId c : {g, h}) {
    const NetId y = nl.add_net(nl.cell(c).name + "_y");
    nl.connect(c, nl.cell(c).spec->output_pin, y);
    nl.add_primary_output("po_" + nl.cell(c).name, y);
  }
  const Floorplan fp = make_floorplan(nl, {});
  const Placement pl = place(nl, fp);
  RoutingResult routes = route(nl, fp, pl);

  const Net& net = nl.net(n);
  ASSERT_EQ(net.sinks.size(), 3u);
  ASSERT_EQ(net.po_sinks.size(), 1u);
  const RouteTreeEdit tree = routes.edit_tree(static_cast<std::size_t>(n));
  ASSERT_EQ(tree.node.size(), 5u);
  const int parent[] = {-1, 0, 1, 0, 3};
  const double edge_um[] = {0.0, 30.0, 12.0, 50.0, 20.0};
  for (std::size_t v = 0; v < tree.node.size(); ++v) {
    tree.node[v] = Point{};
    tree.parent[v] = parent[v];
    tree.edge_um[v] = edge_um[v];
  }
  tree.length_um = 112.0;  // short net: thin-metal constants
  const ExtractionResult px = extract(nl, routes);

  std::vector<double> node_cap(tree.node.size(), 0.0);
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    const PinRef& sink = net.sinks[s];
    node_cap[s + 1] = nl.cell(sink.cell).spec->pins[static_cast<std::size_t>(sink.pin)].cap_ff;
  }
  node_cap[4] = kPoPadCapFf;
  const std::vector<double> expect = reference_elmore(
      routes.tree(static_cast<std::size_t>(n)), node_cap, kRShortOhmPerUm, kCShortFfPerUm);
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    const PinRef& sink = net.sinks[s];
    EXPECT_NEAR(px.elmore_ps(sink.cell, sink.pin), expect[s + 1], 1e-9) << "sink " << s;
    EXPECT_GT(px.elmore_ps(sink.cell, sink.pin), 0.0);
  }
  EXPECT_GT(px.elmore_ps(g, 1), px.elmore_ps(g, 0));
  EXPECT_EQ(px.elmore_ps(g, nand->output_pin), 0.0);
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
    const RouteTree tree = routes.tree(n);
    const NetParasitics& p = px.nets[n];
    const double lumped_bound =
        1e-3 * 0.80 * tree.length_um * p.total_cap_ff + 1e-6;
    for (const PinRef& s : nl->net(static_cast<NetId>(n)).sinks) {
      const double d = px.elmore_ps(s.cell, s.pin);
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
