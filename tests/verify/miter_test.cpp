#include "verify/miter.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "netlist/bench_io.hpp"
#include "scan/scan.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(MiterTest, SelfMiterIsStructurallySound) {
  const auto a = test::make_small_comb();
  const Netlist b = *a;  // identical copy
  const MiterResult m = build_miter(*a, b);
  ASSERT_TRUE(m.ok()) << m.error;
  ASSERT_NE(m.netlist, nullptr);
  EXPECT_TRUE(m.netlist->validate().empty()) << m.netlist->validate();
  EXPECT_EQ(m.matched_pos, 2);  // po_z, po_w
  EXPECT_EQ(m.unmatched_pos, 0);
  EXPECT_EQ(m.shared_pis, 3);  // a, b, c shared by name
  EXPECT_EQ(m.tied_pis, 0);
  // Exactly one PO: the reduced miter output.
  ASSERT_EQ(m.netlist->num_pos(), 1u);
  EXPECT_EQ(m.netlist->po_name(0), "miter_out");
  EXPECT_EQ(m.netlist->po_net(0), m.out_net);
  ASSERT_NE(m.out_net, kNoNet);
}

TEST(MiterTest, ConstructionIsDeterministic) {
  const auto a = test::make_shift_register();
  const Netlist b = *a;
  const MiterResult m1 = build_miter(*a, b);
  const MiterResult m2 = build_miter(*a, b);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(write_bench_string(*m1.netlist), write_bench_string(*m2.netlist));
}

TEST(MiterTest, OneSidedControlInputsAreTiedLow) {
  const auto golden = test::make_shift_register();
  Netlist mutant = *golden;
  insert_scan(mutant);  // adds scan_en (and SDFF TI wiring)
  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  EXPECT_TRUE(m.netlist->validate().empty()) << m.netlist->validate();
  EXPECT_EQ(m.matched_pos, 1);
  // clk and d are shared; scan_en (b-only, non-clock) must be tied to 0.
  EXPECT_EQ(m.shared_pis, 2);
  EXPECT_GE(m.tied_pis, 1);
  // The tied control must not surface as a miter PI.
  for (std::size_t i = 0; i < m.netlist->num_pis(); ++i) {
    EXPECT_NE(m.netlist->pi_name(static_cast<int>(i)), "scan_en");
  }
  // Clock PIs are shared, never tied or prefixed.
  ASSERT_EQ(m.netlist->clock_pis().size(), 1u);
  EXPECT_EQ(m.netlist->pi_name(m.netlist->clock_pis()[0]), "clk");
}

TEST(MiterTest, FreeModeExposesOneSidedInputs) {
  const auto golden = test::make_shift_register();
  Netlist mutant = *golden;
  insert_scan(mutant);
  MiterOptions opts;
  opts.tie_unmatched_pis_low = false;
  const MiterResult m = build_miter(*golden, mutant, opts);
  ASSERT_TRUE(m.ok()) << m.error;
  EXPECT_EQ(m.tied_pis, 0);
  bool saw_scan_en = false;
  for (std::size_t i = 0; i < m.netlist->num_pis(); ++i) {
    saw_scan_en |= m.netlist->pi_name(static_cast<int>(i)) == "scan_en";
  }
  EXPECT_TRUE(saw_scan_en);
}

TEST(MiterTest, NoCommonPrimaryOutputsIsAnError) {
  Netlist a(&lib(), "a");
  const int xa = a.add_primary_input("x");
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);
  const CellId ca = a.add_cell(buf, "u");
  a.connect(ca, 0, a.pi_net(xa));
  const NetId na = a.add_net("n");
  a.connect(ca, buf->output_pin, na);
  a.add_primary_output("pa", na);

  Netlist b(&lib(), "b");
  const int xb = b.add_primary_input("x");
  const CellId cb = b.add_cell(buf, "u");
  b.connect(cb, 0, b.pi_net(xb));
  const NetId nb = b.add_net("n");
  b.connect(cb, buf->output_pin, nb);
  b.add_primary_output("pb", nb);

  const MiterResult m = build_miter(a, b);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.netlist, nullptr);
  EXPECT_NE(m.error.find("no"), std::string::npos) << m.error;
}

TEST(MiterTest, UnmatchedPosErrorWhenNotIgnored) {
  const auto golden = test::make_small_comb();
  Netlist mutant = *golden;
  mutant.add_primary_output("extra", mutant.find_net("y"));
  MiterOptions opts;
  opts.ignore_unmatched_pos = false;
  const MiterResult strict = build_miter(*golden, mutant, opts);
  EXPECT_FALSE(strict.ok());
  const MiterResult lax = build_miter(*golden, mutant);
  ASSERT_TRUE(lax.ok()) << lax.error;
  EXPECT_EQ(lax.matched_pos, 2);
  EXPECT_EQ(lax.unmatched_pos, 1);
}

}  // namespace
}  // namespace tpi
