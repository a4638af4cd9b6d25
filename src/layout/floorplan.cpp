#include "layout/floorplan.hpp"

#include <algorithm>
#include <cmath>

namespace tpi {
namespace {

// Rings between the core rows and the chip edge, inside out.
constexpr double kCoreToRingMarginUm = 10.0;
constexpr double kGroundRingWidthUm = 12.0;
constexpr double kPowerRingWidthUm = 12.0;
constexpr double kIoRingWidthUm = 50.0;

}  // namespace

int Floorplan::nearest_row(double y) const {
  const int row = static_cast<int>(std::floor((y - core_box.ly) / row_height_um));
  return std::clamp(row, 0, num_rows - 1);
}

double placeable_cell_area(const Netlist& nl) {
  double area = 0.0;
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellSpec* spec = nl.cell(static_cast<CellId>(c)).spec;
    if (spec->func == CellFunc::kFiller) continue;
    area += spec->area_um2();
  }
  return area;
}

Floorplan make_floorplan(const Netlist& nl, const FloorplanOptions& opts) {
  const CellLibrary& lib = nl.library();
  Floorplan fp;
  fp.row_height_um = lib.row_height_um();
  fp.site_width_um = lib.site_width_um();

  const double cell_area = placeable_cell_area(nl);
  const double row_area = cell_area / std::clamp(opts.target_row_utilization, 0.05, 1.0);
  const double side = std::sqrt(row_area);

  // Quantise: whole rows, row length in whole sites. Pick the row count
  // (floor or ceiling of the ideal) that keeps the core closest to square;
  // the residual stretch makes the core drift mildly rectangular as cells
  // are added — aspect ratio stays within [0.9, 1.1] (§4.3).
  const int rows_lo = std::max(1, static_cast<int>(std::floor(side / fp.row_height_um)));
  const int rows_hi = rows_lo + 1;
  auto aspect_error = [&](int rows) {
    const double h = rows * fp.row_height_um;
    const double w = row_area / h;
    return std::abs(std::log(w / h));
  };
  fp.num_rows = aspect_error(rows_lo) <= aspect_error(rows_hi) ? rows_lo : rows_hi;
  const double raw_length = row_area / (fp.num_rows * fp.row_height_um);
  fp.row_length_um =
      std::ceil(raw_length / fp.site_width_um) * fp.site_width_um;

  const double core_w = fp.row_length_um;
  const double core_h = fp.num_rows * fp.row_height_um;
  fp.core_box = Rect{0.0, 0.0, core_w, core_h};

  const double margin =
      kCoreToRingMarginUm + kGroundRingWidthUm + kPowerRingWidthUm + kIoRingWidthUm;
  // Chip outline forced square around the (possibly rectangular) core.
  const double chip_side = std::max(core_w, core_h) + 2.0 * margin;
  const double cx = core_w / 2.0, cy = core_h / 2.0;
  fp.chip_box = Rect{cx - chip_side / 2.0, cy - chip_side / 2.0, cx + chip_side / 2.0,
                     cy + chip_side / 2.0};
  return fp;
}

}  // namespace tpi
