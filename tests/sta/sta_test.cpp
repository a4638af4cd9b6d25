#include "sta/sta.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "layout/clock_tree.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"

namespace tpi {
namespace {

using test::lib;

struct TimedCircuit {
  std::unique_ptr<Netlist> nl;
  Floorplan fp;
  Placement pl;
  RoutingResult routes;
  ExtractionResult px;
  StaResult sta;
};

TimedCircuit analyze(std::unique_ptr<Netlist> nl, bool with_cts = false) {
  TimedCircuit out;
  out.nl = std::move(nl);
  out.fp = make_floorplan(*out.nl, {});
  out.pl = place(*out.nl, out.fp);
  if (with_cts) synthesize_clock_trees(*out.nl, out.fp, out.pl);
  out.routes = route(*out.nl, out.fp, out.pl);
  out.px = extract(*out.nl, out.routes);
  out.sta = run_sta(*out.nl, out.px);
  return out;
}

TEST(StaTest, ShiftRegisterPathHandChecked) {
  const TimedCircuit tc = analyze(test::make_shift_register());
  ASSERT_TRUE(tc.sta.worst.valid);
  const CriticalPath& cp = tc.sta.worst;
  // Worst path: f0 CK->Q, through the XOR? No — the XOR feeds a PO, which
  // has no setup check. FF->FF path is f0.Q -> f1.D (direct wire), so the
  // path has exactly one cell (the launching FF).
  EXPECT_EQ(cp.logic_cells_on_path, 1);
  EXPECT_NE(cp.launch_ff, kNoCell);
  EXPECT_NE(cp.capture_ff, kNoCell);
  EXPECT_EQ(cp.test_points_on_path, 0);
  // Decomposition identity of eq. (3): components sum to T_cp.
  EXPECT_NEAR(cp.t_cp_ps,
              cp.t_wires_ps + cp.t_intrinsic_ps + cp.t_load_dep_ps + cp.t_setup_ps +
                  cp.t_skew_ps,
              0.5);
  // Setup comes from the capturing flip-flop's spec.
  EXPECT_DOUBLE_EQ(cp.t_setup_ps, tc.nl->cell(cp.capture_ff).spec->setup_ps);
  EXPECT_GT(cp.t_intrinsic_ps, 0.0);
}

TEST(StaTest, DecompositionIdentityOnGeneratedCircuits) {
  for (std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    const TimedCircuit tc = analyze(generate_circuit(lib(), test::tiny_profile(seed)));
    ASSERT_TRUE(tc.sta.worst.valid);
    const CriticalPath& cp = tc.sta.worst;
    EXPECT_NEAR(cp.t_cp_ps,
                cp.t_wires_ps + cp.t_intrinsic_ps + cp.t_load_dep_ps + cp.t_setup_ps +
                    cp.t_skew_ps,
                1.0)
        << "seed " << seed;
    EXPECT_GT(cp.fmax_mhz(), 0.0);
  }
}

TEST(StaTest, TransparentTestPointSlowsItsPath) {
  // Insert a TSFF directly on the f0.Q -> f1.D wire of the shift register:
  // the FF->FF path must slow down by at least the TSFF intrinsic delay.
  auto base = test::make_shift_register();
  const TimedCircuit before = analyze(std::move(base));
  ASSERT_TRUE(before.sta.worst.valid);

  auto modified = test::make_shift_register();
  const NetId q0 = modified->find_net("q0");
  const CellSpec* tsff = lib().by_name("TSFF_X1");
  const CellId tp = modified->add_cell(tsff, "tp0");
  modified->insert_cell_in_net(q0, tp, tsff->d_pin);
  modified->connect(tp, tsff->clock_pin, modified->pi_net(0));
  const TimedCircuit after = analyze(std::move(modified));
  ASSERT_TRUE(after.sta.worst.valid);
  EXPECT_EQ(after.sta.worst.test_points_on_path, 1);
  EXPECT_GT(after.sta.worst.t_cp_ps, before.sta.worst.t_cp_ps + 80.0);
}

TEST(StaTest, TsffClockToQIsBlockedFalsePath) {
  // In application mode the TSFF output comes from the mux path, not the
  // internal FF: its CK->Q arc must not create paths (§4.4 "blocked all
  // false paths that are only active in test mode").
  auto nl = test::make_shift_register();
  const CellId f0 = nl->find_cell("f0");
  nl->replace_spec(f0, lib().by_name("TSFF_X1"));
  const TimedCircuit tc = analyze(std::move(nl));
  ASSERT_TRUE(tc.sta.worst.valid);
  // The path launches from the PI (through the transparent TSFF) or the
  // remaining FF, never from the TSFF's clock arc.
  EXPECT_NE(tc.sta.worst.launch_ff, f0);
}

TEST(StaTest, ClockTreeSkewAppearsInPaths) {
  auto nl = generate_circuit(lib(), test::tiny_profile(104));
  const TimedCircuit tc = analyze(std::move(nl), /*with_cts=*/true);
  ASSERT_TRUE(tc.sta.worst.valid);
  // With a physical buffer tree, launch/capture arrivals differ: the skew
  // term is nonzero for at least the worst path (almost surely).
  EXPECT_NE(tc.sta.worst.t_skew_ps, 0.0);
  EXPECT_LT(std::abs(tc.sta.worst.t_skew_ps), 500.0);  // sane magnitude
}

TEST(StaTest, PerDomainReports) {
  CircuitProfile p = test::tiny_profile(105);
  p.num_clock_domains = 2;
  p.domain_fraction = {0.5, 0.5};
  p.num_ffs = 40;
  const TimedCircuit tc = analyze(generate_circuit(lib(), p));
  ASSERT_EQ(tc.sta.per_domain.size(), 2u);
  EXPECT_TRUE(tc.sta.per_domain[0].valid);
  EXPECT_TRUE(tc.sta.per_domain[1].valid);
  const double worst = tc.sta.worst.t_cp_ps;
  EXPECT_GE(worst + 1e-9, tc.sta.per_domain[0].t_cp_ps);
  EXPECT_GE(worst + 1e-9, tc.sta.per_domain[1].t_cp_ps);
  EXPECT_TRUE(worst == tc.sta.per_domain[0].t_cp_ps ||
              worst == tc.sta.per_domain[1].t_cp_ps);
}

TEST(StaTest, CriticalPathHasZeroSlack) {
  const TimedCircuit tc = analyze(generate_circuit(lib(), test::tiny_profile(106)));
  ASSERT_TRUE(tc.sta.worst.valid);
  // Every net on the critical path has ~zero slack; others are >= 0.
  double min_slack = 1e300;
  for (const double s : tc.sta.net_slack_ps) min_slack = std::min(min_slack, s);
  EXPECT_NEAR(min_slack, 0.0, 1.0);
}

TEST(StaTest, SlowNodesFlaggedOnOverloadedNets) {
  // A single X1 inverter driving dozens of loads exceeds the characterised
  // table range: the cell must be counted as a slow node.
  Netlist nl(&lib(), "hub");
  const int a = nl.add_primary_input("a");
  const int clk = nl.add_primary_input("clk");
  nl.mark_clock(clk);
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellSpec* dff = lib().by_name("DFF_X1");
  const CellId hub = nl.add_cell(inv, "hub");
  nl.connect(hub, 0, nl.pi_net(a));
  const NetId hub_out = nl.add_net("hub_out");
  nl.connect(hub, inv->output_pin, hub_out);
  for (int i = 0; i < 64; ++i) {
    const CellId f = nl.add_cell(dff, std::string("f").append(std::to_string(i)));
    nl.connect(f, dff->d_pin, hub_out);
    nl.connect(f, dff->clock_pin, nl.pi_net(clk));
    const NetId q = nl.add_net(std::string("q").append(std::to_string(i)));
    nl.connect(f, dff->output_pin, q);
    nl.add_primary_output("po" + std::to_string(i), q);
  }
  const TimedCircuit tc = analyze(
      std::make_unique<Netlist>(std::move(nl)));
  EXPECT_GE(tc.sta.slow_nodes, 1);
}

TEST(StaTest, MoreLoadMeansMoreDelay) {
  // Compare the same path with light vs heavy fanout on its middle net.
  auto make = [&](int extra_loads) {
    auto nl = std::make_unique<Netlist>(&lib(), "loady");
    const int clk = nl->add_primary_input("clk");
    nl->mark_clock(clk);
    const int a = nl->add_primary_input("a");
    const CellSpec* dff = lib().by_name("DFF_X1");
    const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
    const CellId f0 = nl->add_cell(dff, "f0");
    nl->connect(f0, dff->d_pin, nl->pi_net(a));
    nl->connect(f0, dff->clock_pin, nl->pi_net(clk));
    const NetId q = nl->add_net("q");
    nl->connect(f0, dff->output_pin, q);
    const CellId g = nl->add_cell(inv, "mid");
    nl->connect(g, 0, q);
    const NetId m = nl->add_net("m");
    nl->connect(g, inv->output_pin, m);
    const CellId f1 = nl->add_cell(dff, "f1");
    nl->connect(f1, dff->d_pin, m);
    nl->connect(f1, dff->clock_pin, nl->pi_net(clk));
    const NetId q1 = nl->add_net("q1");
    nl->connect(f1, dff->output_pin, q1);
    nl->add_primary_output("po", q1);
    for (int i = 0; i < extra_loads; ++i) {
      const CellId e = nl->add_cell(inv, "load" + std::to_string(i));
      nl->connect(e, 0, m);
      const NetId eo = nl->add_net("eo" + std::to_string(i));
      nl->connect(e, inv->output_pin, eo);
      nl->add_primary_output("epo" + std::to_string(i), eo);
    }
    return nl;
  };
  const TimedCircuit light = analyze(make(0));
  const TimedCircuit heavy = analyze(make(24));
  ASSERT_TRUE(light.sta.worst.valid && heavy.sta.worst.valid);
  EXPECT_GT(heavy.sta.worst.t_cp_ps, light.sta.worst.t_cp_ps);
  EXPECT_GT(heavy.sta.worst.t_load_dep_ps, light.sta.worst.t_load_dep_ps);
}

}  // namespace
}  // namespace tpi
