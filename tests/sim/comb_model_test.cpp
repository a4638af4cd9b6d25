#include "sim/comb_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "../common/paper_netlists.hpp"
#include "../common/test_circuits.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(CombModelTest, PaperScaleHashingGolden) {
  // Pin every structural-hashing shortcut (EvalOp::copy_of) and the dedup
  // count of both views on the full-size paper circuits, raw and after a
  // 5 % TP flow through eco.
  struct Golden {
    std::uint64_t copy_of;
    std::size_t deduped;
  };
  const std::vector<Golden> golden = {
      {0x278ff1ebff3defb1ull, 3138}, {0x278ff1ebff3defb1ull, 3138},  // s38417 raw: app, capture
      {0x70fa9c3bc2d92249ull, 3138}, {0x5dffbcfeaccb4155ull, 3138},  // s38417 5 % TP after eco
      {0x4fa516fdcadedbfeull, 4164}, {0x4fa516fdcadedbfeull, 4164},  // circuit1 raw
      {0x794311bb0e76cee6ull, 4164}, {0x16a27f7ad29f8c46ull, 4164},  // circuit1 5 % TP after eco
      {0xc530495ee6faa5ebull, 9032}, {0xc530495ee6faa5ebull, 9032},  // p26909 raw
      {0x814d7f7cd1cbca97ull, 9032}, {0x4a1c68fc31554eb3ull, 9032},  // p26909 5 % TP after eco
  };
  std::size_t i = 0;
  test::for_each_paper_netlist([&](const std::string& label, const Netlist& nl) {
    for (const SeqView view : {SeqView::kApplication, SeqView::kCapture}) {
      const CombModel model(nl, view);
      std::vector<NetId> copy_of;
      copy_of.reserve(model.eval_ops().size());
      for (const EvalOp& op : model.eval_ops()) copy_of.push_back(op.copy_of);
      std::string bytes;
      test::append_bytes(bytes, copy_of);
      const std::uint64_t d = fnv1a_64(bytes);
      ASSERT_LT(i, golden.size());
      EXPECT_EQ(d, golden[i].copy_of) << label << " view " << static_cast<int>(view)
                                      << " digest 0x" << std::hex << d;
      EXPECT_EQ(model.nodes_deduped(), golden[i].deduped)
          << label << " view " << static_cast<int>(view);
      ++i;
    }
  });
  EXPECT_EQ(i, golden.size());
}

// Hand-built netlist for structural hashing; every expected shortcut is
// written down below.
class HashingCircuit {
 public:
  Netlist nl{&lib(), "hashing"};

  NetId pi(const char* name) { return nl.pi_net(nl.add_primary_input(name)); }
  NetId tie(CellFunc func) {
    const CellSpec* spec = lib().by_name(func == CellFunc::kTie0 ? "TIE0" : "TIE1");
    return output_of(nl.add_cell(spec, next_name()), spec);
  }
  NetId gate(CellFunc func, const std::vector<NetId>& ins) {
    const CellSpec* spec = lib().gate(func, static_cast<int>(ins.size()));
    const CellId c = nl.add_cell(spec, next_name());
    for (std::size_t p = 0; p < ins.size(); ++p) nl.connect(c, static_cast<int>(p), ins[p]);
    return output_of(c, spec);
  }
  NetId mux(NetId a, NetId b, NetId s) {
    const CellSpec* spec = lib().gate(CellFunc::kMux2, 2);
    const CellId c = nl.add_cell(spec, next_name());
    nl.connect(c, spec->find_pin("A"), a);
    nl.connect(c, spec->find_pin("B"), b);
    nl.connect(c, spec->select_pin, s);
    return output_of(c, spec);
  }

 private:
  std::string next_name() { return std::string("g").append(std::to_string(id_++)); }
  NetId output_of(CellId c, const CellSpec* spec) {
    const NetId out = nl.add_net(next_name());
    nl.connect(c, spec->output_pin, out);
    nl.add_primary_output(next_name(), out);
    return out;
  }
  int id_ = 0;
};

TEST(CombModelTest, StructuralHashingCases) {
  HashingCircuit h;
  const NetId a = h.pi("a"), b = h.pi("b"), c = h.pi("c"), d = h.pi("d"), e = h.pi("e");
  const NetId s = h.pi("s");
  std::map<NetId, NetId> expected;  // out -> copy_of; every other op has none

  // Symmetric op, swapped fanins: one value.
  const NetId and_ab = h.gate(CellFunc::kAnd, {a, b});
  expected[h.gate(CellFunc::kAnd, {b, a})] = and_ab;
  // MUX2 is not symmetric in A/B: no shortcut.
  h.mux(a, b, s);
  h.mux(b, a, s);
  // A BUF aliases its output to its input's class, so AND2(buf(a), b) is
  // AND2(a, b). The buffer itself is a pass-through, never counted.
  const NetId buf_a = h.gate(CellFunc::kBuf, {a});
  expected[h.gate(CellFunc::kAnd, {buf_a, b})] = and_ab;
  // Ties of one polarity share a class; the two polarities do not.
  const NetId zero0 = h.tie(CellFunc::kTie0), zero1 = h.tie(CellFunc::kTie0);
  const NetId one0 = h.tie(CellFunc::kTie1), one1 = h.tie(CellFunc::kTie1);
  const NetId or_c0 = h.gate(CellFunc::kOr, {c, zero0});
  expected[h.gate(CellFunc::kOr, {zero1, c})] = or_c0;
  const NetId and_c1 = h.gate(CellFunc::kAnd, {c, one0});
  expected[h.gate(CellFunc::kAnd, {c, one1})] = and_c1;
  h.gate(CellFunc::kAnd, {c, zero0});  // other func and class: no shortcut
  h.gate(CellFunc::kOr, {c, one0});
  // Four inputs, all permuted: one value; a different fourth input is not.
  const NetId nand4 = h.gate(CellFunc::kNand, {a, b, c, d});
  expected[h.gate(CellFunc::kNand, {d, c, b, a})] = nand4;
  h.gate(CellFunc::kNand, {a, b, c, e});
  // 2,000 identical gates: one long run of equal keys.
  const NetId nor_de = h.gate(CellFunc::kNor, {d, e});
  for (int k = 1; k < 2000; ++k) expected[h.gate(CellFunc::kNor, {d, e})] = nor_de;
  ASSERT_TRUE(h.nl.validate().empty()) << h.nl.validate();

  const CombModel model(h.nl, SeqView::kCapture);
  ASSERT_EQ(model.eval_ops().size(), 2015u);  // 2,015 logic cells, ties excluded
  EXPECT_EQ(model.nodes_deduped(), 1u + 1u + 1u + 1u + 1u + 1999u);
  for (const EvalOp& op : model.eval_ops()) {
    const auto it = expected.find(op.out);
    EXPECT_EQ(op.copy_of, it == expected.end() ? kNoNet : it->second) << "net " << op.out;
  }
}

TEST(CombModelTest, NoNodesNoShortcuts) {
  // A PI wired straight to a PO: the model has no node to hash.
  Netlist nl(&lib(), "wire");
  nl.add_primary_output("y", nl.pi_net(nl.add_primary_input("a")));
  const CombModel model(nl, SeqView::kCapture);
  EXPECT_TRUE(model.nodes().empty());
  EXPECT_TRUE(model.eval_ops().empty());
  EXPECT_EQ(model.nodes_deduped(), 0u);
}

}  // namespace
}  // namespace tpi
