// Floorplanning (§3.2 flow step 2, Fig. 3a).
//
// A square core of horizontal standard-cell rows: each cell carries a power
// strip at its top and a ground strip at its bottom, rows are abutted so
// strips of consecutive rows are adjacent, and an IO ring plus power and
// ground rings surround the core. The chip outline is forced square; the
// core may go slightly rectangular (aspect ratio within [0.9, 1.1]) when
// row count and row length cannot both match the target exactly — exactly
// the effect discussed in §4.3.
#pragma once

#include "layout/geometry.hpp"
#include "netlist/netlist.hpp"

namespace tpi {

struct FloorplanOptions {
  double target_row_utilization = 0.97;
};

struct Floorplan {
  int num_rows = 0;
  double row_length_um = 0.0;  ///< L_rows of Table 2 = num_rows * row_length
  double row_height_um = 0.0;
  double site_width_um = 0.0;

  Rect core_box;  ///< rows region
  Rect chip_box;  ///< core + margins + power/ground/IO rings (square)

  double total_row_length_um() const { return num_rows * row_length_um; }
  double core_area_um2() const { return core_box.area(); }
  double chip_area_um2() const { return chip_box.area(); }
  double aspect_ratio() const { return core_box.width() / core_box.height(); }

  /// y coordinate of a row's bottom edge.
  double row_y(int row) const { return core_box.ly + row * row_height_um; }
  /// Row index nearest to a y coordinate (clamped).
  int nearest_row(double y) const;
};

/// Build the floorplan for a netlist: row area = placeable cell area /
/// target utilization, core as square as row quantisation allows.
Floorplan make_floorplan(const Netlist& nl, const FloorplanOptions& opts);

/// Sum of the area of placeable cells (everything except fillers — fillers
/// are added after ECO to plug the remaining gaps).
double placeable_cell_area(const Netlist& nl);

}  // namespace tpi
