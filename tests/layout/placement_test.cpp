#include "layout/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "util/ledger.hpp"

namespace tpi {
namespace {

using test::lib;

struct PlacedCircuit {
  std::unique_ptr<Netlist> nl;
  Floorplan fp;
  Placement pl;
};

PlacedCircuit make_placed(std::uint64_t seed) {
  PlacedCircuit out;
  out.nl = generate_circuit(lib(), test::tiny_profile(seed));
  out.fp = make_floorplan(*out.nl, {});
  out.pl = place(*out.nl, out.fp);
  return out;
}

// Legality: every placeable cell on a row, inside the core, site-aligned,
// and without overlaps within its row.
void expect_legal(const PlacedCircuit& pc) {
  const Netlist& nl = *pc.nl;
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellSpec* spec = nl.cell(static_cast<CellId>(c)).spec;
    if (spec->func == CellFunc::kFiller) continue;
    ASSERT_GE(pc.pl.row[c], 0) << "unplaced cell " << nl.cell(static_cast<CellId>(c)).name;
    const Point& p = pc.pl.pos[c];
    const double lo = p.x - spec->width_um / 2.0;
    const double hi = p.x + spec->width_um / 2.0;
    EXPECT_GE(lo, pc.fp.core_box.lx - 1e-6);
    EXPECT_LE(hi, pc.fp.core_box.lx + pc.fp.row_length_um + 1e-6);
    const double site_pos = (lo - pc.fp.core_box.lx) / pc.fp.site_width_um;
    EXPECT_NEAR(site_pos, std::round(site_pos), 1e-6);
  }
  for (int r = 0; r < pc.fp.num_rows; ++r) {
    double cursor = pc.fp.core_box.lx - 1e-9;
    for (const CellId c : pc.pl.row_order[static_cast<std::size_t>(r)]) {
      const CellSpec* spec = nl.cell(c).spec;
      const double lo = pc.pl.pos[static_cast<std::size_t>(c)].x - spec->width_um / 2.0;
      EXPECT_GE(lo, cursor - 1e-6) << "overlap in row " << r;
      cursor = lo + spec->width_um;
    }
    EXPECT_LE(pc.pl.row_used_um[static_cast<std::size_t>(r)],
              pc.fp.row_length_um + 1e-6);
  }
}

TEST(PlacementTest, ProducesLegalPlacement) {
  const PlacedCircuit pc = make_placed(71);
  expect_legal(pc);
}

TEST(PlacementTest, AllCellsAccountedForInRows) {
  const PlacedCircuit pc = make_placed(72);
  std::size_t in_rows = 0;
  for (const auto& row : pc.pl.row_order) in_rows += row.size();
  std::size_t placeable = 0;
  for (std::size_t c = 0; c < pc.nl->num_cells(); ++c) {
    placeable += pc.nl->cell(static_cast<CellId>(c)).spec->func != CellFunc::kFiller;
  }
  EXPECT_EQ(in_rows, placeable);
}

TEST(PlacementTest, BeatsNaiveSpreadOnWirelength) {
  auto nl = generate_circuit(lib(), test::small_profile(73));
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement tuned = place(*nl, fp);
  // Naive spread: the same pads, cells in netlist order row after row,
  // evenly over the core.
  Placement naive = tuned;
  const std::size_t n = nl->num_cells();
  for (std::size_t c = 0; c < n; ++c) {
    const double t = (static_cast<double>(c) + 0.5) / static_cast<double>(n);
    const int r = std::min(fp.num_rows - 1, static_cast<int>(t * fp.num_rows));
    const double frac_in_row = t * fp.num_rows - r;
    naive.pos[c] = Point{fp.core_box.lx + frac_in_row * fp.core_box.width(),
                         fp.row_y(r) + fp.row_height_um / 2.0};
  }
  EXPECT_LT(tuned.total_hpwl(*nl), 0.9 * naive.total_hpwl(*nl));
}

TEST(PlacementTest, DeterministicAcrossRuns) {
  const PlacedCircuit a = make_placed(74);
  const PlacedCircuit b = make_placed(74);
  ASSERT_EQ(a.pl.pos.size(), b.pl.pos.size());
  EXPECT_EQ(std::memcmp(a.pl.pos.data(), b.pl.pos.data(), a.pl.pos.size() * sizeof(Point)), 0);
  EXPECT_EQ(a.pl.row, b.pl.row);
  EXPECT_EQ(a.pl.row_order, b.pl.row_order);
}

template <typename T>
void append_bytes(std::string& out, const std::vector<T>& v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

// FNV-1a over the bytes of every Placement field place() fills.
std::uint64_t placement_digest(const Placement& pl) {
  std::string bytes;
  append_bytes(bytes, pl.pos);
  append_bytes(bytes, pl.row);
  for (const auto& order : pl.row_order) {
    const std::size_t n = order.size();
    bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
    append_bytes(bytes, order);
  }
  append_bytes(bytes, pl.row_used_um);
  append_bytes(bytes, pl.pi_pad);
  append_bytes(bytes, pl.po_pad);
  return fnv1a_64(bytes);
}

TEST(PlacementTest, PaperScaleGolden) {
  // The tiny flow baseline places a few hundred cells; pin the placement of
  // the three paper circuits at a quarter scale, as the flow places them
  // after TPI and scan insertion, byte for byte.
  struct Golden {
    CircuitProfile profile;
    double tp_percent;
    std::uint64_t digest;
  };
  const CircuitProfile s38417 = scaled(s38417_profile(), 0.25);
  const CircuitProfile circuit1 = scaled(circuit1_profile(), 0.25);
  const CircuitProfile p26909 = scaled(p26909_profile(), 0.25);
  for (const Golden& g : {Golden{s38417, 0.0, 0x996150977588ba60ull},
                          Golden{s38417, 5.0, 0x37c546d7c20d3743ull},
                          Golden{circuit1, 0.0, 0x757170b58bf17d38ull},
                          Golden{circuit1, 5.0, 0xf509719627dd5b8bull},
                          Golden{p26909, 0.0, 0x46803b05d886a737ull},
                          Golden{p26909, 5.0, 0xd53dc89629b35bdfull}}) {
    FlowOptions opts;
    opts.tp_percent = g.tp_percent;
    FlowEngine engine(lib(), g.profile, opts);
    ASSERT_TRUE(engine.run_stage(Stage::kTpiScan));
    EXPECT_EQ(engine.result().num_test_points > 0, g.tp_percent > 0.0) << g.profile.name;
    ASSERT_TRUE(engine.run_stage(Stage::kFloorplanPlace));
    const std::uint64_t d = placement_digest(*engine.placement());
    EXPECT_EQ(d, g.digest) << g.profile.name << " @" << g.tp_percent << "% TP digest 0x"
                           << std::hex << d;
  }
}

TEST(PlacementTest, PadsLieOnChipBoundary) {
  const PlacedCircuit pc = make_placed(75);
  const Rect& box = pc.fp.chip_box;
  auto on_edge = [&](const Point& p) {
    const double eps = 1e-6;
    const bool x_edge = std::abs(p.x - box.lx) < eps || std::abs(p.x - box.hx) < eps;
    const bool y_edge = std::abs(p.y - box.ly) < eps || std::abs(p.y - box.hy) < eps;
    return (x_edge && p.y >= box.ly - eps && p.y <= box.hy + eps) ||
           (y_edge && p.x >= box.lx - eps && p.x <= box.hx + eps);
  };
  for (const Point& p : pc.pl.pi_pad) EXPECT_TRUE(on_edge(p));
  for (const Point& p : pc.pl.po_pad) EXPECT_TRUE(on_edge(p));
}

TEST(PlacementTest, EcoInsertsWithoutDisturbingOthers) {
  PlacedCircuit pc = make_placed(76);
  // Record pre-ECO rows of existing cells.
  std::map<CellId, int> rows_before;
  for (std::size_t c = 0; c < pc.nl->num_cells(); ++c) {
    rows_before[static_cast<CellId>(c)] = pc.pl.row[c];
  }
  const CellSpec* buf = lib().gate(CellFunc::kBuf, 1);  // X1 fits row gaps
  std::vector<CellId> added;
  for (int i = 0; i < 5; ++i) {
    added.push_back(pc.nl->add_cell(buf, "eco" + std::to_string(i)));
  }
  eco_place(*pc.nl, pc.fp, pc.pl, added);
  expect_legal(pc);
  for (const CellId c : added) {
    EXPECT_GE(pc.pl.row[static_cast<std::size_t>(c)], 0);
  }
  // ECO never moves a cell to a different row (it may repack within a row).
  for (const auto& [cell, row] : rows_before) {
    EXPECT_EQ(pc.pl.row[static_cast<std::size_t>(cell)], row);
  }
}

TEST(PlacementTest, EcoOverflowFallsBackToLeastUsedRow) {
  // When no row can host the new cell, ECO placement still places it (the
  // core simply exceeds the utilization target) instead of failing.
  PlacedCircuit pc = make_placed(78);
  const CellSpec* wide = lib().by_name("TSFF_X1");
  std::vector<CellId> added;
  for (int i = 0; i < 40; ++i) {
    added.push_back(pc.nl->add_cell(wide, "big" + std::to_string(i)));
  }
  eco_place(*pc.nl, pc.fp, pc.pl, added);
  for (const CellId c : added) EXPECT_GE(pc.pl.row[static_cast<std::size_t>(c)], 0);
}

TEST(PlacementTest, FillersPlugEveryGap) {
  PlacedCircuit pc = make_placed(77);
  const FillerReport report = insert_fillers(*pc.nl, pc.fp, pc.pl);
  EXPECT_GT(report.cells_added, 0);
  // After filling, every row is exactly full.
  for (int r = 0; r < pc.fp.num_rows; ++r) {
    double used = 0.0;
    for (const CellId c : pc.pl.row_order[static_cast<std::size_t>(r)]) {
      used += pc.nl->cell(c).spec->width_um;
    }
    EXPECT_NEAR(used, pc.fp.row_length_um, 1e-6) << "row " << r;
  }
  // Filler area fills exactly the non-cell row area.
  const double row_area = pc.fp.num_rows * pc.fp.row_length_um * pc.fp.row_height_um;
  EXPECT_NEAR(report.area_um2, row_area - placeable_cell_area(*pc.nl),
              1e-3 * row_area + 1.0);
}

TEST(PlacementTest, HpwlIncludesPads) {
  auto nl = test::make_small_comb();
  const Floorplan fp = make_floorplan(*nl, {});
  const Placement pl = place(*nl, fp);
  EXPECT_GT(pl.total_hpwl(*nl), 0.0);
}

}  // namespace
}  // namespace tpi
