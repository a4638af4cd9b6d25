// Standard-cell placement (§3.2 flow step 2, Fig. 3b) and ECO placement
// (flow step 4).
//
// Global placement is iterative centroid attraction (a light-weight
// quadratic-style placer) on a flat CSR view of the netlist, with periodic
// rank-based spreading (a bucketed stable sort, see rank_by_key) to keep cell density
// uniform, followed by row legalisation that packs cells onto sites. It
// draws no random numbers: a placement is a function of the netlist and
// floorplan alone. The layouts are optimised for area/wirelength only — no timing
// optimisation, matching §4.1. ECO placement inserts late cells (scan
// reorder buffers, clock buffers) into the nearest row gap without moving
// placed cells, as in flow step 4.
#pragma once

#include <vector>

#include "layout/floorplan.hpp"
#include "netlist/netlist.hpp"

namespace tpi {

struct Placement {
  /// Cell centre positions, indexed by CellId (valid for placed cells).
  std::vector<Point> pos;
  std::vector<int> row;  ///< row index per cell (-1 = unplaced)
  std::vector<std::vector<CellId>> row_order;  ///< cells per row, left to right
  std::vector<double> row_used_um;             ///< occupied width per row

  /// IO pad positions around the chip boundary (per PI / PO index).
  std::vector<Point> pi_pad;
  std::vector<Point> po_pad;

  /// Total half-perimeter wirelength over all nets (quality metric).
  double total_hpwl(const Netlist& nl) const;
};

Placement place(const Netlist& nl, const Floorplan& fp);

/// (Re)distribute IO pads around the chip boundary. Must be called again
/// before routing whenever netlist edits added PIs/POs after placement
/// (scan-in/scan-out ports from chain stitching).
void assign_io_pads(const Netlist& nl, const Floorplan& fp, Placement& pl);

/// Place cells added after the initial placement (ECO, flow step 4): each
/// new cell goes into the free space nearest its connectivity centroid;
/// existing cells do not move.
void eco_place(const Netlist& nl, const Floorplan& fp, Placement& pl,
               const std::vector<CellId>& new_cells);

struct FillerReport {
  int cells_added = 0;
  double area_um2 = 0.0;
};

/// Fill remaining row gaps with filler cells (flow step 4: fillers keep the
/// power and ground strips continuous). Adds FILL* cells to the netlist.
FillerReport insert_fillers(Netlist& nl, const Floorplan& fp, Placement& pl);

}  // namespace tpi
