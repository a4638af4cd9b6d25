#include "library/library.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
