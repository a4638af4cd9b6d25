#include "atpg/fault.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "scan/scan.hpp"
#include "util/ledger.hpp"

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

TEST(FaultListTest, PaperScaleDigestPinned) {
  // The collapsed list of each paper circuit at a quarter scale, scanned,
  // stitched and with a buffered scan-enable tree, for both fault models.
  // The digest covers every representative's site, polarity, equivalence
  // count and status in list order, so a change to the fault order, the
  // collapse folds or the scan classification shows up here.
  struct Golden {
    CircuitProfile profile;
    FaultModel model;
    std::size_t faults;
    std::int64_t total;
    std::uint64_t digest;
  };
  const CircuitProfile s38417 = scaled(s38417_profile(), 0.25);
  const CircuitProfile circuit1 = scaled(circuit1_profile(), 0.25);
  const CircuitProfile p26909 = scaled(p26909_profile(), 0.25);
  const FaultModel sa = FaultModel::kStuckAt;
  const FaultModel tr = FaultModel::kTransition;
  for (const Golden& g : {Golden{s38417, sa, 22615, 39264, 0x892ce29da2d755cbull},
                          Golden{s38417, tr, 30444, 39264, 0xcbf1180b1139ba7dull},
                          Golden{circuit1, sa, 32770, 56728, 0x361070e44d5f724cull},
                          Golden{circuit1, tr, 43732, 56728, 0xef8598cab04a4b05ull},
                          Golden{p26909, sa, 31635, 55744, 0x95038b4ff36e20dfull},
                          Golden{p26909, tr, 42504, 55744, 0x67150f1a274f7b0dull}}) {
    std::ostringstream label;
    label << g.profile.name << " " << fault_model_name(g.model);
    SCOPED_TRACE(label.str());
    auto nl = generate_circuit(lib(), g.profile);
    insert_scan(*nl);
    ScanOptions so;
    stitch_chains(*nl, plan_chains(*nl, so, {}));
    buffer_high_fanout_net(*nl, nl->find_net("scan_en"));
    CombModel model(*nl, SeqView::kCapture);
    const FaultList fl = build_fault_list(model, g.model);
    std::string bytes;
    for (const Fault& f : fl.faults) {
      const std::int32_t branch[2] = {f.branch.cell, f.branch.pin};
      bytes.append(reinterpret_cast<const char*>(&f.net), sizeof f.net);
      bytes.append(reinterpret_cast<const char*>(branch), sizeof branch);
      bytes.push_back(static_cast<char>(f.stuck1));
      bytes.append(reinterpret_cast<const char*>(&f.equiv_count), sizeof f.equiv_count);
      bytes.push_back(static_cast<char>(f.status));
    }
    EXPECT_GT(fl.count(FaultStatus::kScanTested), 0u);
    EXPECT_EQ(fl.faults.size(), g.faults);
    EXPECT_EQ(fl.total_uncollapsed, g.total);
    EXPECT_EQ(fnv1a_64(bytes), g.digest) << "digest 0x" << std::hex << fnv1a_64(bytes);
  }
}

}  // namespace
}  // namespace tpi
