#include "verify/equiv.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "netlist/design_db.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "verify/miter.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(EquivTest, ShiftRegisterIsSelfEquivalent) {
  const auto golden = test::make_shift_register();
  const Netlist copy = *golden;
  const MiterResult m = build_miter(*golden, copy);
  ASSERT_TRUE(m.ok()) << m.error;
  EquivChecker checker(*m.netlist);
  const EquivResult res = checker.check();
  EXPECT_TRUE(res.equivalent);
  // The ternary domain is non-relational (X ^ X = X), so an all-X initial
  // state cannot prove a *sequential* self-miter silent — only refute it.
  EXPECT_FALSE(res.proven_x_init);
  EXPECT_GT(res.frames_simulated, 0);
  EXPECT_TRUE(res.cex.empty());
}

// With no state bits the ternary pass sees only binary PIs, so a silent
// combinational miter IS provable.
TEST(EquivTest, CombSelfMiterProvenSilent) {
  const auto golden = test::make_small_comb();
  const Netlist copy = *golden;
  const MiterResult m = build_miter(*golden, copy);
  ASSERT_TRUE(m.ok()) << m.error;
  const EquivResult res = EquivChecker(*m.netlist).check();
  EXPECT_TRUE(res.equivalent);
  EXPECT_TRUE(res.proven_x_init);
}

TEST(EquivTest, ScanInsertionIsMissionModeEquivalent) {
  const auto golden = generate_circuit(lib(), test::tiny_profile(601));
  Netlist mutant = *golden;
  insert_scan(mutant);
  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  const EquivResult res = EquivChecker(*m.netlist).check();
  EXPECT_TRUE(res.equivalent) << "cex from " << res.cex.source << " at frame "
                              << res.cex.fail_frame;
}

// The full DfT stack of the paper's flow: TPI (TSFFs), scan conversion,
// chain stitching. All of it must be invisible in mission mode.
TEST(EquivTest, TpiScanStitchIsMissionModeEquivalent) {
  const auto golden = generate_circuit(lib(), test::tiny_profile(602));
  Netlist mutant = *golden;
  {
    DesignDB db(mutant);
    TpiOptions tpi;
    tpi.num_test_points = 3;
    insert_test_points(db, tpi);
  }
  const ScanOptions sopts;
  insert_scan(mutant);
  stitch_chains(mutant, plan_chains(mutant, sopts, {}));
  ASSERT_TRUE(mutant.validate().empty()) << mutant.validate();

  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  EXPECT_GT(m.tied_pis, 0);  // scan_en, tp_te, tp_tr, si<k>
  const EquivResult res = EquivChecker(*m.netlist).check();
  EXPECT_TRUE(res.equivalent) << "cex from " << res.cex.source << " at frame "
                              << res.cex.fail_frame;
}

// A deliberately broken "transform" (inverter spliced into the PO net) must
// be caught, and the counterexample must replay and shrink to one all-zero
// frame: from reset both sides output 0 vs 1 immediately.
TEST(EquivTest, BrokenMutantYieldsMinimalReplayableCex) {
  const auto golden = test::make_shift_register();
  Netlist mutant = *golden;
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  ASSERT_NE(inv, nullptr);
  const NetId t = mutant.find_net("t");
  ASSERT_NE(t, kNoNet);
  mutant.insert_cell_in_net(t, mutant.add_cell(inv, "bug.inv"), 0);
  ASSERT_TRUE(mutant.validate().empty()) << mutant.validate();

  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  EquivChecker checker(*m.netlist);
  const EquivResult res = checker.check();
  ASSERT_FALSE(res.equivalent);
  EXPECT_FALSE(res.proven_x_init);
  ASSERT_FALSE(res.cex.empty());
  EXPECT_TRUE(checker.replay(res.cex));
  // Shrinking: mismatch fires at the very first frame with nothing set.
  EXPECT_EQ(res.cex.num_frames(), 1u);
  EXPECT_EQ(res.cex.fail_frame, 0);
  EXPECT_TRUE(res.cex.initial_state.empty());
  for (const auto& frame : res.cex.pi_frames) {
    for (const std::uint8_t bit : frame) EXPECT_EQ(bit, 0);
  }
}

// A state-update bug (inverter on the register-to-register path) is only
// visible once corrupted state reaches the PO; the trace must still replay
// after shrinking.
TEST(EquivTest, StatePathBugIsCaughtAndShrunk) {
  const auto golden = test::make_shift_register();
  Netlist mutant = *golden;
  const CellSpec* inv = lib().gate(CellFunc::kInv, 1);
  const NetId q0 = mutant.find_net("q0");
  ASSERT_NE(q0, kNoNet);
  // Only f1's D input moves to the inverted net; the XOR tap keeps q0.
  const CellId f1 = mutant.find_cell("f1");
  ASSERT_NE(f1, kNoCell);
  const CellSpec* dff = mutant.cell(f1).spec;
  mutant.insert_cell_in_net(q0, mutant.add_cell(inv, "bug.inv"), 0,
                            {PinRef{f1, dff->d_pin}});
  ASSERT_TRUE(mutant.validate().empty()) << mutant.validate();

  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  EquivChecker checker(*m.netlist);
  const EquivResult res = checker.check();
  ASSERT_FALSE(res.equivalent);
  ASSERT_FALSE(res.cex.empty());
  EXPECT_TRUE(checker.replay(res.cex));
  const CexTrace again = checker.shrink_trace(res.cex);
  EXPECT_TRUE(checker.replay(again));
  EXPECT_LE(again.num_frames(), res.cex.num_frames());
}

TEST(EquivTest, CheckIsDeterministicInSeed) {
  const auto golden = generate_circuit(lib(), test::tiny_profile(603));
  Netlist mutant = *golden;
  insert_scan(mutant);
  const MiterResult m = build_miter(*golden, mutant);
  ASSERT_TRUE(m.ok()) << m.error;
  EquivOptions opts;
  opts.seed = 0xBEEF;
  const EquivResult r1 = EquivChecker(*m.netlist, opts).check();
  const EquivResult r2 = EquivChecker(*m.netlist, opts).check();
  EXPECT_EQ(r1.equivalent, r2.equivalent);
  EXPECT_EQ(r1.proven_x_init, r2.proven_x_init);
  EXPECT_EQ(r1.frames_simulated, r2.frames_simulated);
}

}  // namespace
}  // namespace tpi
