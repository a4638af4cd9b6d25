// Scan insertion and scan-chain management (§3.2 flow steps 1 and 3).
//
// Step 1 replaces every DFF with a scan flip-flop and hooks up the shared
// scan-enable; scan-in routing (TI pins) stays open because chains are
// stitched only after placement. Step 3 performs layout-driven scan chain
// stitching: scan cells are clustered into balanced chains by position and
// ordered with a nearest-neighbour tour so scan wiring stays short, then
// buffer trees are added to the scan-enable (and test-point control) nets.
#pragma once

#include <vector>

#include "layout/geometry.hpp"
#include "netlist/netlist.hpp"

namespace tpi {

struct ScanOptions {
  /// Balanced maximum chain length (0 = derive from max_chains).
  int max_chain_length = 100;
  /// Upper bound on the number of chains (0 = unlimited).
  int max_chains = 0;
};

struct ScanInsertReport {
  int converted_ffs = 0;   ///< DFFs replaced by SDFFs
  int scan_cells = 0;      ///< total scan cells (SDFF + TSFF)
  NetId scan_enable_net = kNoNet;
};

/// Replace DFFs with SDFFs and connect every scan cell's TE to the shared
/// scan-enable PI (TSFFs already own a TE from TPI; they are rehomed to the
/// shared net so one enable drives the whole scan path).
ScanInsertReport insert_scan(Netlist& nl);

struct ChainPlan {
  std::vector<std::vector<CellId>> chains;  ///< scan cells per chain, in shift order
  int num_chains = 0;
  int max_length = 0;  ///< l_max of Table 1
};

/// Partition scan cells into balanced chains, one clock domain per chain
/// (mixing domains in one chain would need lock-up latches).
/// `position` gives the placed centre per cell id (Placement::pos) for
/// layout-driven clustering; pass an empty vector for netlist-order chains
/// (pre-layout fallback).
ChainPlan plan_chains(const Netlist& nl, const ScanOptions& opts,
                      const std::vector<Point>& position);

/// Order the cells inside each chain with a nearest-neighbour tour over
/// their placed locations (layout-driven scan chain reordering, step 3).
void reorder_chains(ChainPlan& plan, const std::vector<Point>& position);

/// Total scan-routing length estimate for a plan (sum of Manhattan hops
/// between consecutive cells), used by the reordering ablation bench.
double chain_wire_length(const ChainPlan& plan, const std::vector<Point>& position);

struct StitchReport {
  int num_chains = 0;
  int scan_in_pis = 0;
  int scan_out_pos = 0;
};

/// Wire TI pins along each chain and create per-chain scan-in PIs and
/// scan-out POs.
StitchReport stitch_chains(Netlist& nl, const ChainPlan& plan);

/// Insert a buffer tree on a high-fanout net (scan enable, TSFF TE/TR)
/// limiting each stage to `max_fanout` loads. Returns #buffers added.
int buffer_high_fanout_net(Netlist& nl, NetId net, int max_fanout = 24);

}  // namespace tpi
