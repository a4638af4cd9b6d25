#include "netlist/levelize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../common/paper_netlists.hpp"
#include "../common/test_circuits.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(LevelizeTest, CombinationalChainLevels) {
  auto nl = test::make_small_comb();
  const TopoOrder topo = levelize(*nl, SeqView::kCapture);
  EXPECT_TRUE(topo.acyclic);
  ASSERT_EQ(topo.order.size(), 3u);
  const CellId g1 = nl->find_cell("g1");
  const CellId g2 = nl->find_cell("g2");
  const CellId g3 = nl->find_cell("g3");
  EXPECT_EQ(topo.level[static_cast<std::size_t>(g1)], 0);
  EXPECT_EQ(topo.level[static_cast<std::size_t>(g2)], 1);
  EXPECT_EQ(topo.level[static_cast<std::size_t>(g3)], 2);
  // Order respects dependencies.
  auto pos = [&](CellId c) {
    return std::find(topo.order.begin(), topo.order.end(), c) - topo.order.begin();
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_LT(pos(g2), pos(g3));
}

TEST(LevelizeTest, FlipFlopsAreBoundariesInBothViews) {
  auto nl = test::make_shift_register();
  for (const SeqView view : {SeqView::kApplication, SeqView::kCapture}) {
    const TopoOrder topo = levelize(*nl, view);
    EXPECT_TRUE(topo.acyclic);
    // Only the XOR is combinational; both DFFs are boundaries.
    EXPECT_EQ(topo.order.size(), 1u);
  }
}

TEST(LevelizeTest, TsffIsViewDependent) {
  auto nl = test::make_shift_register();
  const CellId f0 = nl->find_cell("f0");
  nl->replace_spec(f0, lib().by_name("TSFF_X1"));
  EXPECT_FALSE(is_boundary(*nl, f0, SeqView::kApplication));  // transparent
  EXPECT_TRUE(is_boundary(*nl, f0, SeqView::kCapture));       // scan cell
  const TopoOrder app = levelize(*nl, SeqView::kApplication);
  const TopoOrder cap = levelize(*nl, SeqView::kCapture);
  EXPECT_EQ(app.order.size(), 2u);  // XOR + transparent TSFF
  EXPECT_EQ(cap.order.size(), 1u);  // XOR only
}

TEST(LevelizeTest, SequentialLoopIsAcyclicThroughFlipFlops) {
  // q feeds an inverter that feeds back into the same FF's D: a legal
  // sequential loop, combinationally acyclic.
  Netlist nl(&lib(), "toggle");
  const int clk = nl.add_primary_input("clk");
  nl.mark_clock(clk);
  const CellSpec* dff = lib().by_name("DFF_X1");
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellId f = nl.add_cell(dff, "f");
  const NetId q = nl.add_net("q");
  nl.connect(f, dff->output_pin, q);
  nl.connect(f, dff->clock_pin, nl.pi_net(clk));
  const CellId g = nl.add_cell(inv, "g");
  nl.connect(g, 0, q);
  const NetId nq = nl.add_net("nq");
  nl.connect(g, inv->output_pin, nq);
  nl.connect(f, dff->d_pin, nq);
  nl.add_primary_output("po", q);

  const TopoOrder topo = levelize(nl, SeqView::kApplication);
  EXPECT_TRUE(topo.acyclic);
  EXPECT_EQ(topo.order.size(), 1u);
}

TEST(LevelizeTest, CombinationalCycleDetected) {
  // Two cross-coupled NANDs with no sequential break: a combinational loop.
  Netlist nl(&lib(), "latch");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  const CellSpec* nand2 = lib().gate(CellFunc::kNand, 2);
  const CellId g1 = nl.add_cell(nand2, "g1");
  const CellId g2 = nl.add_cell(nand2, "g2");
  const NetId q = nl.add_net("q");
  const NetId qb = nl.add_net("qb");
  nl.connect(g1, nand2->output_pin, q);
  nl.connect(g2, nand2->output_pin, qb);
  nl.connect(g1, 0, nl.pi_net(a));
  nl.connect(g1, 1, qb);
  nl.connect(g2, 0, nl.pi_net(b));
  nl.connect(g2, 1, q);
  nl.add_primary_output("po", q);

  const TopoOrder topo = levelize(nl, SeqView::kCapture);
  EXPECT_FALSE(topo.acyclic);
}

TEST(LevelizeTest, ClockBuffersExcludedFromLogicGraph) {
  auto nl = test::make_shift_register();
  const CellSpec* ckbuf = lib().gate(CellFunc::kClkBuf, 1, 4);
  const CellId b = nl->add_cell(ckbuf, "ckb");
  const NetId out = nl->add_net("ck_leaf");
  nl->connect(b, ckbuf->find_pin("A"), nl->pi_net(0));
  nl->connect(b, ckbuf->output_pin, out);
  const TopoOrder topo = levelize(*nl, SeqView::kCapture);
  for (const CellId c : topo.order) EXPECT_NE(c, b);
}

TEST(LevelizeTest, PaperScaleGolden) {
  // Pin order, level and acyclic of both views on the full-size paper
  // circuits, raw and after a 5 % TP flow through eco, byte for byte.
  const std::vector<std::uint64_t> golden = {
      0x67999f3086e5b979ull, 0x67999f3086e5b979ull,  // s38417 raw: application, capture
      0x4174f6e9b31f6e1cull, 0x6daba5c255802b58ull,  // s38417 5 % TP after eco
      0xe6d6d626bf8360e5ull, 0xe6d6d626bf8360e5ull,  // circuit1 raw
      0xa90352d7148bb173ull, 0x1b0dfc031c0c9aafull,  // circuit1 5 % TP after eco
      0xb087762b3bbf7525ull, 0xb087762b3bbf7525ull,  // p26909 raw
      0xd09c48669910644dull, 0xe7313ed216d34dbeull,  // p26909 5 % TP after eco
  };
  std::size_t i = 0;
  test::for_each_paper_netlist([&](const std::string& label, const Netlist& nl) {
    for (const SeqView view : {SeqView::kApplication, SeqView::kCapture}) {
      const TopoOrder topo = levelize(nl, view);
      std::string bytes;
      test::append_bytes(bytes, topo.order);
      test::append_bytes(bytes, topo.level);
      bytes.push_back(topo.acyclic ? '1' : '0');
      const std::uint64_t d = fnv1a_64(bytes);
      ASSERT_LT(i, golden.size());
      EXPECT_EQ(d, golden[i]) << label << " view " << static_cast<int>(view) << " digest 0x"
                              << std::hex << d;
      ++i;
    }
  });
  EXPECT_EQ(i, golden.size());
}

}  // namespace
}  // namespace tpi
