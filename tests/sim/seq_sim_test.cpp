#include "sim/seq_sim.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(SeqSimTest, ShiftRegisterShiftsData) {
  auto nl = test::make_shift_register();
  SequentialSim sim(*nl);
  EXPECT_EQ(sim.num_state_bits(), 2u);

  // Drive d = 1 for one cycle, then 0. PO = q0 ^ q1 tracks the shift.
  std::vector<Word> po;
  sim.step({~Word{0}}, po);  // after: q0=1, q1=0
  EXPECT_EQ(sim.state()[0], ~Word{0});
  EXPECT_EQ(sim.state()[1], Word{0});
  sim.step({Word{0}}, po);  // after: q0=0, q1=1; during cycle q0=1,q1=0 -> po=1
  EXPECT_EQ(po[0], ~Word{0});
  EXPECT_EQ(sim.state()[0], Word{0});
  EXPECT_EQ(sim.state()[1], ~Word{0});
  sim.step({Word{0}}, po);  // during: q0=0,q1=1 -> po=1; after: 0,0
  EXPECT_EQ(po[0], ~Word{0});
  sim.step({Word{0}}, po);  // during: 0,0 -> po=0
  EXPECT_EQ(po[0], Word{0});
}

TEST(SeqSimTest, ResetClearsState) {
  auto nl = test::make_shift_register();
  SequentialSim sim(*nl);
  std::vector<Word> po;
  sim.step({~Word{0}}, po);
  EXPECT_NE(sim.state()[0], Word{0});
  sim.reset();
  EXPECT_EQ(sim.state()[0], Word{0});
  EXPECT_EQ(sim.state()[1], Word{0});
}

TEST(SeqSimTest, SixtyFourParallelInstances) {
  // Bit k of the input word drives instance k; instances stay independent.
  auto nl = test::make_shift_register();
  SequentialSim sim(*nl);
  std::vector<Word> po;
  const Word pattern = 0xDEADBEEFCAFEBABEULL;
  sim.step({pattern}, po);
  EXPECT_EQ(sim.state()[0], pattern);
  sim.step({0}, po);
  EXPECT_EQ(sim.state()[1], pattern);
  EXPECT_EQ(po[0], pattern);  // q0^q1 = 0^pattern during the second cycle
}

TEST(SeqSimTest, TsffIsTransparentInApplicationMode) {
  // Replace the first FF with a TSFF: functionally the pipeline loses one
  // stage because the TSFF passes D through combinationally (Fig. 1).
  auto nl = test::make_shift_register();
  const CellId f0 = nl->find_cell("f0");
  nl->replace_spec(f0, lib().by_name("TSFF_X1"));
  // Tie the test controls low (application mode).
  const CellId tie0 = nl->add_cell(lib().by_name("TIE0"), "tie");
  const NetId zero = nl->add_net("zero");
  nl->connect(tie0, 0, zero);
  const CellSpec* tsff = nl->cell(f0).spec;
  nl->connect(f0, tsff->te_pin, zero);
  nl->connect(f0, tsff->tr_pin, zero);

  SequentialSim sim(*nl);
  EXPECT_EQ(sim.num_state_bits(), 1u);  // only f1 is a state boundary now
  std::vector<Word> po;
  sim.step({~Word{0}}, po);
  // d passes through the TSFF combinationally: f1 captures 1 immediately.
  EXPECT_EQ(sim.state()[0], ~Word{0});
}

TEST(SeqSimTest, GeneratedCircuitRunsAndSettles) {
  auto nl = generate_circuit(lib(), test::tiny_profile());
  SequentialSim sim(*nl);
  std::vector<Word> pis(sim.model().num_pi_inputs(), 0x5555555555555555ULL);
  std::vector<Word> po;
  for (int cycle = 0; cycle < 8; ++cycle) sim.step(pis, po);
  EXPECT_EQ(po.size(), sim.model().num_po_observes());
}

}  // namespace
}  // namespace tpi
