// Topological ordering of the combinational portion of a netlist.
//
// Two sequential views exist because the TSFF (Fig. 1) is mode-dependent:
//  * kApplication — functional mode (TE=TR=0): the TSFF is transparent, a
//    combinational element with a D→Q arc. Used by timing analysis and
//    functional simulation.
//  * kCapture — scan capture mode (TE=0, TR=1): the TSFF behaves like any
//    scan flip-flop (its D is observed, its Q is controlled), i.e. it is a
//    sequential boundary. Used by ATPG and testability analysis.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace tpi {

// SeqView itself is defined in netlist.hpp; this header owns the view
// semantics helpers.

/// Whether `cell` acts as a sequential boundary in the given view.
bool is_boundary(const Netlist& nl, CellId cell, SeqView view);

struct TopoOrder {
  /// Combinational cells (including transparent TSFFs in kApplication view)
  /// in evaluation order. Excludes flip-flop boundaries, clock buffers and
  /// fillers.
  std::vector<CellId> order;
  /// Level (longest distance from a source) per cell; −1 for cells outside
  /// the combinational graph.
  std::vector<int> level;
  bool acyclic = true;
};

TopoOrder levelize(const Netlist& nl, SeqView view);

}  // namespace tpi
