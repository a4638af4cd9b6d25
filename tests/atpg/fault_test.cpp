#include "atpg/fault.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "scan/scan.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(FaultListTest, UncollapsedUniverseCountsPins) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  // Pins: g1(A,B,Y)=3, g2(A,B,Y)=3, g3(A,B,Y)=3, PIs=3 -> 12 sites, 24 faults.
  EXPECT_EQ(fl.total_uncollapsed, 24);
}

TEST(FaultListTest, EquivalentCountsSumToUniverse) {
  auto nl = generate_circuit(lib(), test::tiny_profile(3));
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  std::int64_t sum = 0;
  for (const Fault& f : fl.faults) sum += f.equiv_count;
  EXPECT_EQ(sum, fl.total_uncollapsed);
}

TEST(FaultListTest, CollapsingReducesFaults) {
  auto nl = generate_circuit(lib(), test::tiny_profile(4));
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  EXPECT_LT(static_cast<std::int64_t>(fl.faults.size()), fl.total_uncollapsed);
  // Meaningful compaction: at least 20% fewer representatives.
  EXPECT_LT(static_cast<double>(fl.faults.size()),
            0.8 * static_cast<double>(fl.total_uncollapsed));
}

TEST(FaultListTest, BufferChainCollapsesToOneRepresentativePerPolarity) {
  Netlist nl(&lib(), "chain");
  const int a = nl.add_primary_input("a");
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  NetId prev = nl.pi_net(a);
  for (int i = 0; i < 3; ++i) {
    // std::string(...) + ...: GCC 12 warns -Wrestrict on "literal" + rvalue.
    const CellId b = nl.add_cell(buf, std::string("b") + std::to_string(i));
    nl.connect(b, 0, prev);
    const NetId out = nl.add_net(std::string("n") + std::to_string(i));
    nl.connect(b, buf->output_pin, out);
    prev = out;
  }
  nl.add_primary_output("po", prev);
  CombModel model(nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  // a + 3 buffer outputs = 4 nets x 2 faults uncollapsed on pins = (1 PI +
  // 3x2 pins) * 2 = 14; all collapse to the final net's pair.
  EXPECT_EQ(fl.total_uncollapsed, 14);
  EXPECT_EQ(fl.faults.size(), 2u);
  for (const Fault& f : fl.faults) EXPECT_EQ(f.equiv_count, 7);
}

TEST(FaultListTest, InverterSwapsPolarity) {
  Netlist nl(&lib(), "inv");
  const int a = nl.add_primary_input("a");
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const CellId g = nl.add_cell(inv, "g");
  nl.connect(g, 0, nl.pi_net(a));
  const NetId out = nl.add_net("n");
  nl.connect(g, inv->output_pin, out);
  nl.add_primary_output("po", out);
  CombModel model(nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  ASSERT_EQ(fl.faults.size(), 2u);
  // Representatives live on the output net, each standing for 3 pins:
  // {a sa0 ≡ n sa1} and {a sa1 ≡ n sa0}.
  for (const Fault& f : fl.faults) {
    EXPECT_EQ(f.net, out);
    EXPECT_EQ(f.equiv_count, 3);
  }
}

TEST(FaultListTest, BranchFaultsOnlyOnMultiFanout) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  for (const Fault& f : fl.faults) {
    if (!f.is_stem()) {
      EXPECT_GT(nl->net(f.net).fanout(), 1u)
          << "branch fault on single-fanout net " << nl->net(f.net).name;
    }
  }
}

TEST(FaultListTest, ScanInfrastructureClassified) {
  auto nl = test::make_shift_register();
  ScanOptions so;
  so.max_chain_length = 4;
  insert_scan(*nl);
  const ChainPlan plan = plan_chains(*nl, so, {});
  stitch_chains(*nl, plan);
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  std::int64_t scan = fl.count_equiv(FaultStatus::kScanTested);
  EXPECT_GT(scan, 0);
  // Clock-net faults are scan-classified.
  for (const Fault& f : fl.faults) {
    if (nl->is_clock_net(f.net)) {
      EXPECT_EQ(f.status, FaultStatus::kScanTested);
    }
  }
}

TEST(FaultListTest, ScanEnableBufferTreeIsScanTested) {
  auto nl = generate_circuit(lib(), test::tiny_profile(8));
  insert_scan(*nl);
  const NetId se = nl->find_net("scan_en");
  ASSERT_NE(se, kNoNet);
  const int buffers = buffer_high_fanout_net(*nl, se, 4);
  ASSERT_GT(buffers, 0);
  CombModel model(*nl, SeqView::kCapture);
  const FaultList fl = build_fault_list(model);
  // Every fault on the scan-enable tree (root and buffer outputs) must be
  // classified scan-tested, not handed to ATPG.
  for (const Fault& f : fl.faults) {
    const Net& net = nl->net(f.net);
    const bool in_tree =
        net.name.find("scan_en") != std::string::npos;
    if (in_tree) {
      EXPECT_EQ(f.status, FaultStatus::kScanTested) << net.name;
    }
  }
}

}  // namespace
}  // namespace tpi
