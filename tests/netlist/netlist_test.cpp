#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(NetlistTest, BuildSmallCircuit) {
  auto nl = test::make_small_comb();
  EXPECT_EQ(nl->num_cells(), 3u);
  EXPECT_EQ(nl->num_pis(), 3u);
  EXPECT_EQ(nl->num_pos(), 2u);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(NetlistTest, DriverAndSinksTracked) {
  auto nl = test::make_small_comb();
  const NetId y = nl->find_net("y");
  ASSERT_NE(y, kNoNet);
  const Net& net = nl->net(y);
  EXPECT_TRUE(net.driver.valid());
  EXPECT_EQ(nl->cell(net.driver.cell).name, "g1");
  ASSERT_EQ(net.sinks.size(), 1u);
  EXPECT_EQ(nl->cell(net.sinks[0].cell).name, "g2");
  EXPECT_EQ(net.fanout(), 1u);
}

TEST(NetlistTest, PiNetAndPoBookkeeping) {
  auto nl = test::make_small_comb();
  const NetId a = nl->pi_net(0);
  EXPECT_TRUE(nl->net(a).driven_by_pi());
  EXPECT_EQ(nl->net(a).pi_index, 0);
  // a drives g1 and g3 -> fanout 2.
  EXPECT_EQ(nl->net(a).fanout(), 2u);
  const NetId z = nl->find_net("z");
  // z feeds po_z and g3: fanout counts the PO.
  EXPECT_EQ(nl->net(z).fanout(), 2u);
  EXPECT_EQ(nl->po_net(0), z);
}

TEST(NetlistTest, DisconnectRemovesSink) {
  auto nl = test::make_small_comb();
  const CellId g2 = nl->find_cell("g2");
  const NetId y = nl->find_net("y");
  nl->disconnect(g2, 1);  // g2.B was y
  EXPECT_EQ(nl->net(y).sinks.size(), 0u);
  EXPECT_EQ(nl->cell(g2).conn[1], kNoNet);
  nl->connect(g2, 1, y);
  EXPECT_TRUE(nl->validate().empty());
}

TEST(NetlistTest, DisconnectMiddleSinkKeepsOrder) {
  // One PI net read by four inverters: dropping the second load keeps the
  // other three in their connect order, and a free pin is a no-op.
  Netlist nl(&lib(), "fanout4");
  const NetId a = nl.pi_net(nl.add_primary_input("a"));
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const int in_pin = inv->find_pin("A");
  std::vector<CellId> g;
  for (const char* name : {"g0", "g1", "g2", "g3"}) {
    g.push_back(nl.add_cell(inv, name));
    nl.connect(g.back(), in_pin, a);
  }
  nl.disconnect(g[1], in_pin);
  const std::vector<PinRef> left{{g[0], in_pin}, {g[2], in_pin}, {g[3], in_pin}};
  EXPECT_EQ(nl.net(a).sinks, left);
  EXPECT_EQ(nl.cell(g[1]).conn[static_cast<std::size_t>(in_pin)], kNoNet);

  const std::uint64_t version = nl.version();
  nl.disconnect(g[1], in_pin);
  nl.disconnect(g[0], inv->output_pin);
  EXPECT_EQ(nl.version(), version);
  EXPECT_EQ(nl.net(a).sinks, left);
}

TEST(NetlistTest, ReplaceSpecCarriesPinsByName) {
  auto nl = test::make_shift_register();
  const CellId f0 = nl->find_cell("f0");
  const NetId d_net = nl->cell(f0).conn[static_cast<std::size_t>(lib().by_name("DFF_X1")->d_pin)];
  const NetId q_net = nl->cell(f0).output_net();
  nl->replace_spec(f0, lib().by_name("SDFF_X1"));
  const CellSpec* sdff = nl->cell(f0).spec;
  EXPECT_EQ(sdff->name, "SDFF_X1");
  EXPECT_EQ(nl->cell(f0).conn[static_cast<std::size_t>(sdff->d_pin)], d_net);
  EXPECT_EQ(nl->cell(f0).output_net(), q_net);
  // New scan pins start unconnected.
  EXPECT_EQ(nl->cell(f0).conn[static_cast<std::size_t>(sdff->ti_pin)], kNoNet);
  EXPECT_EQ(nl->cell(f0).conn[static_cast<std::size_t>(sdff->te_pin)], kNoNet);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(NetlistTest, InsertCellInNetMovesAllLoads) {
  auto nl = test::make_small_comb();
  const NetId z = nl->find_net("z");
  const std::size_t loads_before = nl->net(z).fanout();
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId b = nl->add_cell(buf, "split_buf");
  const NetId fresh = nl->insert_cell_in_net(z, b, buf->find_pin("A"));
  // Old net now feeds only the buffer; all loads (incl. the PO) moved.
  EXPECT_EQ(nl->net(z).sinks.size(), 1u);
  EXPECT_EQ(nl->net(z).sinks[0].cell, b);
  EXPECT_TRUE(nl->net(z).po_sinks.empty());
  EXPECT_EQ(nl->net(fresh).fanout(), loads_before);
  EXPECT_EQ(nl->po_net(0), fresh);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(NetlistTest, InsertCellInNetSubsetKeepsOthers) {
  auto nl = test::make_small_comb();
  const NetId a = nl->pi_net(0);  // feeds g1 and g3
  const std::vector<PinRef> subset{nl->net(a).sinks[0]};
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId b = nl->add_cell(buf, "sb");
  nl->insert_cell_in_net(a, b, buf->find_pin("A"), subset);
  EXPECT_EQ(nl->net(a).sinks.size(), 2u);  // buffer + the remaining sink
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(NetlistTest, ClockMarking) {
  auto nl = test::make_shift_register();
  EXPECT_TRUE(nl->is_clock_net(nl->pi_net(0)));
  EXPECT_FALSE(nl->is_clock_net(nl->pi_net(1)));
  EXPECT_EQ(nl->clock_pis().size(), 1u);
}

TEST(NetlistTest, FlipFlopAndTestPointQueries) {
  auto nl = test::make_shift_register();
  EXPECT_EQ(nl->flip_flops().size(), 2u);
  EXPECT_EQ(nl->stats().test_points, 0u);
  const CellId f0 = nl->find_cell("f0");
  nl->replace_spec(f0, lib().by_name("TSFF_X1"));
  EXPECT_EQ(nl->stats().test_points, 1u);
  EXPECT_EQ(nl->flip_flops().size(), 2u);
}

TEST(NetlistTest, StatsAggregates) {
  auto nl = test::make_shift_register();
  const Netlist::Stats s = nl->stats();
  EXPECT_EQ(s.cells, 3u);
  EXPECT_EQ(s.flip_flops, 2u);
  EXPECT_EQ(s.combinational, 1u);
  EXPECT_GT(s.cell_area_um2, 0.0);
}

// Names need not be unique; a lookup returns the lowest id with the name.
TEST(NetlistTest, FindReturnsLowestIdOfSharedName) {
  Netlist nl(&lib());
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const NetId first_net = nl.add_net("n");
  nl.add_net("m");
  nl.add_net("n");
  const CellId first_cell = nl.add_cell(buf, "u");
  nl.add_cell(buf, "v");
  nl.add_cell(buf, "u");
  EXPECT_EQ(nl.find_net("n"), first_net);
  EXPECT_EQ(nl.find_cell("u"), first_cell);
  EXPECT_EQ(nl.find_net("m"), 1);
  EXPECT_EQ(nl.find_cell("v"), 1);
}

TEST(NetlistTest, FindMissingReturnsSentinels) {
  auto nl = test::make_small_comb();
  EXPECT_EQ(nl->find_cell("nope"), kNoCell);
  EXPECT_EQ(nl->find_net("nope"), kNoNet);
}

}  // namespace
}  // namespace tpi
