#include "library/library.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tpi {
namespace {

class Phl130Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { lib_ = make_phl130_library().release(); }
  static const CellLibrary* lib_;
};
const CellLibrary* Phl130Test::lib_ = nullptr;

// A netlist holds each cell's pin nets in kMaxCellPins inline slots: the
// library's widest cell fills them exactly, and a wider spec is refused.
TEST(LibraryTest, RejectsSpecWiderThanInlinePins) {
  const auto phl = make_phl130_library();
  std::size_t widest = 0;
  for (const auto& c : phl->cells()) widest = std::max(widest, c->pins.size());
  EXPECT_EQ(widest, kMaxCellPins);

  CellLibrary lib("wide", 0.4, 3.6);
  CellSpec spec;
  spec.name = "WIDE";
  spec.func = CellFunc::kAnd;
  for (std::size_t i = 0; i < kMaxCellPins; ++i) {
    spec.pins.push_back(PinSpec{"I" + std::to_string(i), PinDir::kInput, 1.0, false});
  }
  spec.pins.push_back(PinSpec{"Y", PinDir::kOutput, 0.0, false});
  spec.num_inputs = static_cast<int>(kMaxCellPins);
  EXPECT_THROW(lib.add_cell(spec, 4), std::invalid_argument);
  EXPECT_TRUE(lib.cells().empty());
  spec.pins.erase(spec.pins.begin());
  spec.num_inputs -= 1;
  EXPECT_NE(lib.add_cell(spec, 4), nullptr);
}

TEST_F(Phl130Test, BasicGeometry) {
  EXPECT_EQ(lib_->name(), "phl130");
  EXPECT_GT(lib_->site_width_um(), 0.0);
  EXPECT_GT(lib_->row_height_um(), 0.0);
}

TEST_F(Phl130Test, LookupByNameAndFunction) {
  ASSERT_NE(lib_->by_name("NAND2_X1"), nullptr);
  EXPECT_EQ(lib_->by_name("NAND2_X1")->num_inputs, 2);
  EXPECT_EQ(lib_->by_name("NOPE"), nullptr);
  const CellSpec* nand3 = lib_->gate(CellFunc::kNand, 3);
  ASSERT_NE(nand3, nullptr);
  EXPECT_EQ(nand3->name, "NAND3_X1");
  EXPECT_EQ(lib_->gate(CellFunc::kNand, 7), nullptr);
  const CellSpec* inv4 = lib_->gate(CellFunc::kInv, 1, 4);
  ASSERT_NE(inv4, nullptr);
  EXPECT_EQ(inv4->drive, 4);
}

TEST_F(Phl130Test, ScanCellsHaveExpectedPins) {
  const CellSpec* sdff = lib_->by_name("SDFF_X1");
  ASSERT_NE(sdff, nullptr);
  EXPECT_TRUE(sdff->sequential);
  EXPECT_GE(sdff->d_pin, 0);
  EXPECT_GE(sdff->ti_pin, 0);
  EXPECT_GE(sdff->te_pin, 0);
  EXPECT_EQ(sdff->tr_pin, -1);
  EXPECT_GE(sdff->clock_pin, 0);
  EXPECT_GT(sdff->setup_ps, 0.0);

  const CellSpec* tsff = lib_->by_name("TSFF_X1");
  ASSERT_NE(tsff, nullptr);
  EXPECT_GE(tsff->tr_pin, 0);  // the output-mux control of Fig. 1
}

TEST_F(Phl130Test, TsffHasTransparentDataArc) {
  const CellSpec* tsff = lib_->by_name("TSFF_X1");
  ASSERT_NE(tsff, nullptr);
  // Fig. 1: D->Q application-mode arc through two multiplexers, plus CK->Q.
  const TimingArc* d_arc = tsff->arc_from(tsff->d_pin);
  const TimingArc* ck_arc = tsff->arc_from(tsff->clock_pin);
  ASSERT_NE(d_arc, nullptr);
  ASSERT_NE(ck_arc, nullptr);
  const double d_delay = d_arc->delay.lookup(50, 10).value_ps;
  const CellSpec* mux = lib_->by_name("MUX2_X1");
  const double mux_delay = mux->arcs.front().delay.lookup(50, 10).value_ps;
  // "The propagation delay in application mode is increased by at least the
  // delay of the two multiplexers" (§3.1).
  EXPECT_GE(d_delay, 1.5 * mux_delay);
}

TEST_F(Phl130Test, TsffCostsMoreAreaThanScanFlop) {
  const double dff = lib_->by_name("DFF_X1")->area_um2();
  const double sdff = lib_->by_name("SDFF_X1")->area_um2();
  const double tsff = lib_->by_name("TSFF_X1")->area_um2();
  EXPECT_GT(sdff, dff);
  EXPECT_GT(tsff, sdff);
}

TEST_F(Phl130Test, FillersWidestFirstAndCoverSingleSite) {
  const auto& fillers = lib_->fillers();
  ASSERT_GE(fillers.size(), 2u);
  for (std::size_t i = 1; i < fillers.size(); ++i) {
    EXPECT_GE(fillers[i - 1]->width_um, fillers[i]->width_um);
  }
  EXPECT_DOUBLE_EQ(fillers.back()->width_um, lib_->site_width_um());
}

TEST_F(Phl130Test, ClockBuffersAscendingDrive) {
  const auto& bufs = lib_->clock_buffers();
  ASSERT_GE(bufs.size(), 2u);
  for (std::size_t i = 1; i < bufs.size(); ++i) {
    EXPECT_GT(bufs[i]->drive, bufs[i - 1]->drive);
  }
}

// Pin roles follow the cell's function, not its pin names: a NAND4's pin
// "D" is logic, not a flip-flop data pin. Expected roles are written out
// per cell of the library.
TEST(LibraryTest, PinRolesFollowTheFunction) {
  struct Roles {
    std::vector<int> logic;          ///< in evaluation order
    std::vector<int> scan_or_clock;  ///< ascending
    int d_pin = -1;
    int select_pin = -1;
  };
  const Roles one{{0}, {}, -1, -1};
  const Roles two{{0, 1}, {}, -1, -1};
  const Roles three{{0, 1, 2}, {}, -1, -1};
  const Roles four{{0, 1, 2, 3}, {}, -1, -1};
  const Roles none{{}, {}, -1, -1};
  const std::map<std::string, Roles> expected = {
      {"BUF_X1", one},      {"BUF_X2", one},      {"BUF_X4", one},
      {"INV_X1", one},      {"INV_X2", one},      {"INV_X4", one},
      {"NAND2_X1", two},    {"NAND3_X1", three},  {"NAND4_X1", four},
      {"NOR2_X1", two},     {"NOR3_X1", three},   {"NOR4_X1", four},
      {"AND2_X1", two},     {"AND3_X1", three},   {"OR2_X1", two},
      {"OR3_X1", three},    {"XOR2_X1", two},     {"XNOR2_X1", two},
      {"MUX2_X1", Roles{{0, 1, 2}, {}, -1, 2}},  // A, B, then S
      {"CLKBUF_X2", one},   {"CLKBUF_X4", one},   {"CLKBUF_X8", one},
      {"DFF_X1", Roles{{0}, {1}, 0, -1}},           // D, CK
      {"SDFF_X1", Roles{{0}, {1, 2, 3}, 0, -1}},    // D, TI, TE, CK
      {"TSFF_X1", Roles{{0}, {1, 2, 3, 4}, 0, -1}}, // D, TI, TE, TR, CK
      {"TIE0", none},       {"TIE1", none},       {"FILL1", none},
      {"FILL2", none},      {"FILL4", none},      {"FILL8", none},
      {"FILL16", none},
  };
  const auto lib = make_phl130_library();
  EXPECT_EQ(lib->cells().size(), expected.size());
  for (const auto& cell : lib->cells()) {
    const auto it = expected.find(cell->name);
    ASSERT_NE(it, expected.end()) << cell->name;
    const Roles& want = it->second;
    EXPECT_EQ(cell->logic_pins, want.logic) << cell->name;
    EXPECT_EQ(cell->d_pin, want.d_pin) << cell->name;
    EXPECT_EQ(cell->select_pin, want.select_pin) << cell->name;
    for (int p = 0; p < static_cast<int>(cell->pins.size()); ++p) {
      const bool logic = std::count(want.logic.begin(), want.logic.end(), p) > 0;
      const bool scan = std::count(want.scan_or_clock.begin(), want.scan_or_clock.end(), p) > 0;
      EXPECT_EQ(((cell->logic_pin_mask >> p) & 1u) != 0, logic) << cell->name << " pin " << p;
      EXPECT_EQ(cell->is_scan_or_clock_pin(p), scan) << cell->name << " pin " << p;
    }
  }
}

// Parameterised sweep over every cell in the library.
class AllCellsTest : public ::testing::TestWithParam<const CellSpec*> {};

TEST_P(AllCellsTest, GeometryIsSiteQuantised) {
  const CellSpec* spec = GetParam();
  EXPECT_GT(spec->width_um, 0.0);
  const double sites = spec->width_um / 0.4;
  EXPECT_NEAR(sites, std::round(sites), 1e-9) << spec->name;
  EXPECT_DOUBLE_EQ(spec->height_um, 3.6);
}

TEST_P(AllCellsTest, PinsAreConsistent) {
  const CellSpec* spec = GetParam();
  int outputs = 0;
  for (const auto& pin : spec->pins) {
    if (pin.dir == PinDir::kOutput) {
      ++outputs;
      EXPECT_EQ(pin.cap_ff, 0.0) << spec->name;
    } else {
      EXPECT_GT(pin.cap_ff, 0.0) << spec->name << " pin " << pin.name;
    }
  }
  if (spec->func == CellFunc::kFiller) {
    EXPECT_EQ(outputs, 0);
  } else {
    EXPECT_EQ(outputs, 1) << spec->name;
    EXPECT_GE(spec->output_pin, 0);
  }
}

TEST_P(AllCellsTest, ArcsReferenceValidPins) {
  const CellSpec* spec = GetParam();
  for (const auto& arc : spec->arcs) {
    ASSERT_GE(arc.from_pin, 0);
    ASSERT_LT(static_cast<std::size_t>(arc.from_pin), spec->pins.size());
    EXPECT_EQ(arc.to_pin, spec->output_pin);
    EXPECT_EQ(spec->pins[static_cast<std::size_t>(arc.from_pin)].dir, PinDir::kInput);
    EXPECT_FALSE(arc.delay.empty());
    EXPECT_FALSE(arc.out_slew.empty());
  }
  // Every logic input of a combinational cell has a delay arc.
  if (!spec->sequential && spec->func != CellFunc::kFiller &&
      spec->func != CellFunc::kTie0 && spec->func != CellFunc::kTie1) {
    for (std::size_t p = 0; p < spec->pins.size(); ++p) {
      if (spec->pins[p].dir != PinDir::kInput) continue;
      EXPECT_NE(spec->arc_from(static_cast<int>(p)), nullptr)
          << spec->name << " pin " << spec->pins[p].name;
    }
  }
}

std::vector<const CellSpec*> all_cells() {
  static const std::unique_ptr<CellLibrary> lib = make_phl130_library();
  std::vector<const CellSpec*> out;
  for (const auto& c : lib->cells()) out.push_back(c.get());
  return out;
}

INSTANTIATE_TEST_SUITE_P(Phl130, AllCellsTest, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<const CellSpec*>& info) {
                           return info.param->name;
                         });

}  // namespace
}  // namespace tpi
