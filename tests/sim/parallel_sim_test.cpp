#include "sim/parallel_sim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "../common/test_circuits.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

// Truth-table check for every 2-input gate function via a one-gate netlist.
struct GateCase {
  CellFunc func;
  int inputs;
  // expected output bit for each input assignment (index = packed inputs)
  unsigned truth;  // up to 16 rows for 4 inputs
  const char* name;
};

class GateTruthTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruthTest, MatchesTruthTable) {
  const GateCase gc = GetParam();
  Netlist nl(&lib(), "gate");
  const CellSpec* spec = lib().gate(gc.func, gc.inputs);
  ASSERT_NE(spec, nullptr);
  std::vector<NetId> ins;
  for (int i = 0; i < gc.inputs; ++i) {
    ins.push_back(nl.pi_net(nl.add_primary_input(std::string("i").append(std::to_string(i)))));
  }
  const CellId g = nl.add_cell(spec, "g");
  static const char* kNames[] = {"A", "B", "C", "D"};
  for (int i = 0; i < gc.inputs; ++i) nl.connect(g, spec->find_pin(kNames[i]), ins[i]);
  const NetId out = nl.add_net("out");
  nl.connect(g, spec->output_pin, out);
  nl.add_primary_output("po", out);

  CombModel model(nl, SeqView::kCapture);
  ParallelSim sim(model);
  // Pack all input assignments into one 64-bit word batch.
  const int rows = 1 << gc.inputs;
  std::vector<Word> words(static_cast<std::size_t>(gc.inputs), 0);
  for (int row = 0; row < rows; ++row) {
    for (int i = 0; i < gc.inputs; ++i) {
      if (row & (1 << i)) words[static_cast<std::size_t>(i)] |= Word{1} << row;
    }
  }
  sim.load_inputs(words);
  sim.run();
  const Word result = sim.value(out);
  for (int row = 0; row < rows; ++row) {
    const unsigned expect = (gc.truth >> row) & 1u;
    EXPECT_EQ((result >> row) & 1u, expect) << gc.name << " row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateTruthTest,
    ::testing::Values(
        GateCase{CellFunc::kBuf, 1, 0b10, "BUF"},
        GateCase{CellFunc::kInv, 1, 0b01, "INV"},
        GateCase{CellFunc::kAnd, 2, 0b1000, "AND2"},
        GateCase{CellFunc::kNand, 2, 0b0111, "NAND2"},
        GateCase{CellFunc::kOr, 2, 0b1110, "OR2"},
        GateCase{CellFunc::kNor, 2, 0b0001, "NOR2"},
        GateCase{CellFunc::kXor, 2, 0b0110, "XOR2"},
        GateCase{CellFunc::kXnor, 2, 0b1001, "XNOR2"},
        GateCase{CellFunc::kAnd, 3, 0b10000000, "AND3"},
        GateCase{CellFunc::kNand, 3, 0b01111111, "NAND3"},
        GateCase{CellFunc::kOr, 3, 0b11111110, "OR3"},
        GateCase{CellFunc::kNor, 3, 0b00000001, "NOR3"},
        GateCase{CellFunc::kNand, 4, 0b0111111111111111, "NAND4"},
        GateCase{CellFunc::kNor, 4, 0b0000000000000001, "NOR4"}),
    [](const ::testing::TestParamInfo<GateCase>& info) { return info.param.name; });

TEST(ParallelSimTest, Mux2SelectsCorrectInput) {
  Netlist nl(&lib(), "mux");
  const CellSpec* mux = lib().gate(CellFunc::kMux2, 2);
  const NetId a = nl.pi_net(nl.add_primary_input("a"));
  const NetId b = nl.pi_net(nl.add_primary_input("b"));
  const NetId s = nl.pi_net(nl.add_primary_input("s"));
  const CellId g = nl.add_cell(mux, "g");
  nl.connect(g, mux->find_pin("A"), a);
  nl.connect(g, mux->find_pin("B"), b);
  nl.connect(g, mux->find_pin("S"), s);
  const NetId out = nl.add_net("out");
  nl.connect(g, mux->output_pin, out);
  nl.add_primary_output("po", out);

  CombModel model(nl, SeqView::kCapture);
  ParallelSim sim(model);
  // a=0101..., b=0011..., s=0000 1111 pattern over 8 rows.
  sim.load_inputs({0b10101010, 0b11001100, 0b11110000});
  sim.run();
  // s=0 rows take a; s=1 rows take b.
  EXPECT_EQ(sim.value(out) & 0xFFu, (0b10101010u & 0x0F) | (0b11001100u & 0xF0));
}

TEST(ParallelSimTest, ConstantNetsHoldValues) {
  Netlist nl(&lib(), "tie");
  const CellId t0 = nl.add_cell(lib().by_name("TIE0"), "t0");
  const CellId t1 = nl.add_cell(lib().by_name("TIE1"), "t1");
  const NetId n0 = nl.add_net("n0");
  const NetId n1 = nl.add_net("n1");
  nl.connect(t0, 0, n0);
  nl.connect(t1, 0, n1);
  const CellSpec* and2 = lib().gate(CellFunc::kAnd, 2);
  const CellId g = nl.add_cell(and2, "g");
  nl.connect(g, 0, n0);
  nl.connect(g, 1, n1);
  const NetId out = nl.add_net("out");
  nl.connect(g, and2->output_pin, out);
  nl.add_primary_output("po", out);

  CombModel model(nl, SeqView::kCapture);
  ParallelSim sim(model);
  sim.run();
  EXPECT_EQ(sim.value(n0), Word{0});
  EXPECT_EQ(sim.value(n1), ~Word{0});
  EXPECT_EQ(sim.value(out), Word{0});
}

TEST(ParallelSimTest, SmallCombEndToEnd) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  ParallelSim sim(model);
  // Exhaustive 8 rows: a=bit0, b=bit1, c=bit2 of the row index.
  std::vector<Word> words(3, 0);
  for (int row = 0; row < 8; ++row) {
    for (int i = 0; i < 3; ++i) {
      if (row & (1 << i)) words[static_cast<std::size_t>(i)] |= Word{1} << row;
    }
  }
  sim.load_inputs(words);
  sim.run();
  std::vector<Word> obs;
  sim.read_observes(obs);
  ASSERT_EQ(obs.size(), 2u);
  for (int row = 0; row < 8; ++row) {
    const int a = row & 1, b = (row >> 1) & 1, c = (row >> 2) & 1;
    const int y = !(a | b);
    const int z = c & y;
    const int w = a ^ z;
    EXPECT_EQ((obs[0] >> row) & 1, static_cast<unsigned>(z)) << "row " << row;
    EXPECT_EQ((obs[1] >> row) & 1, static_cast<unsigned>(w)) << "row " << row;
  }
}

TEST(ParallelSimTest, CombModelInputAndObserveSets) {
  auto nl = test::make_shift_register();
  CombModel model(*nl, SeqView::kCapture);
  // Inputs: PI d (clock excluded) + 2 FF outputs.
  EXPECT_EQ(model.num_pi_inputs(), 1u);
  EXPECT_EQ(model.input_nets().size(), 3u);
  // Observes: PO + 2 FF D nets.
  EXPECT_EQ(model.num_po_observes(), 1u);
  EXPECT_EQ(model.observe_nets().size(), 3u);
  EXPECT_EQ(model.boundary_ffs().size(), 2u);
}

// The launch-on-capture pair against two plain runs: the kept launch frame
// is run() of the inputs, and the capture frame is run() of capture inputs
// built here from the netlist, each flip-flop's Q taking the launch value
// of its own D net while the PIs keep theirs. Two counted sweeps per pair.
// The shift register has a flip-flop whose D is another one's Q, so a
// pseudo-input fed from the half-updated capture frame shows.
TEST(ParallelSimTest, LaunchCaptureMatchesTwoPlainRuns) {
  std::vector<std::unique_ptr<Netlist>> circuits;
  circuits.push_back(generate_circuit(lib(), test::tiny_profile(61)));
  circuits.push_back(test::make_shift_register());
  for (const auto& nl : circuits) {
    SCOPED_TRACE(nl->name());
    CombModel model(*nl, SeqView::kCapture);
    ASSERT_GT(model.boundary_ffs().size(), 1u);
    const auto& inputs = model.input_nets();
    std::unordered_map<NetId, std::size_t> input_slot;
    for (std::size_t i = 0; i < inputs.size(); ++i) input_slot[inputs[i]] = i;

    for (const int nw : {1, 8}) {
      SCOPED_TRACE(nw);
      const auto snw = static_cast<std::size_t>(nw);
      Rng rng(static_cast<std::uint64_t>(nw));
      std::vector<Word> words(inputs.size() * snw);
      for (Word& w : words) w = rng.next_u64();

      ParallelSim loc(model, nw);
      std::vector<Word> launch;
      MetricsRegistry registry;
      {
        const ScopedMetricsRegistry scope(registry);
        loc.run_launch_capture(words, launch);
      }
      const MetricsSnapshot snap = registry.snapshot();
      const MetricValue* sweeps = snap.find("sim.good_sweeps");
      ASSERT_NE(sweeps, nullptr);
      EXPECT_EQ(sweeps->count, 2u);

      ParallelSim plain(model, nw);
      plain.load_inputs(words);
      plain.run();
      EXPECT_EQ(launch, plain.values());

      std::vector<Word> capture = words;
      for (const CellId ff : model.boundary_ffs()) {
        const CellInst& inst = nl->cell(ff);
        const Word* d = plain.words(inst.conn[static_cast<std::size_t>(inst.spec->d_pin)]);
        const std::size_t q = input_slot.at(inst.output_net());
        ASSERT_GE(q, model.num_pi_inputs());
        for (std::size_t j = 0; j < snw; ++j) capture[q * snw + j] = d[j];
      }
      EXPECT_NE(capture, words);
      plain.load_inputs(capture);
      plain.run();
      EXPECT_EQ(loc.values(), plain.values());
    }
  }
}

}  // namespace
}  // namespace tpi
