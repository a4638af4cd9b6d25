// Parasitic extraction (§3.2 flow step 5, the HyperExtract stage).
//
// Per-net wire resistance/capacitance is derived from the routed tree with
// per-unit-length constants for two layer classes (short nets on thin
// lower metal, long nets promoted to thicker upper metal). Sink delays use
// the Elmore model over the route tree with a pi-segment per edge; the
// total capacitance (wire + sink pins + pad loads) is what the NLDM
// lookups in STA see as output load.
#pragma once

#include <vector>

#include "layout/routing.hpp"

namespace tpi {

// Thin lower-metal class (short nets); the thick upper-metal constants of
// long nets and the length that promotes a net (400 µm) live in
// extraction.cpp.
inline constexpr double kRShortOhmPerUm = 0.80;
inline constexpr double kCShortFfPerUm = 0.18;
inline constexpr double kPoPadCapFf = 40.0;  ///< load of an output pad

struct NetParasitics {
  double wire_cap_ff = 0.0;
  double pin_cap_ff = 0.0;
  double total_cap_ff = 0.0;  ///< driver's output load
};

struct ExtractionResult {
  std::vector<NetParasitics> nets;  ///< indexed by NetId
  /// Elmore wire delay (ps) from each net's driver to each cell pin it
  /// feeds, at cell * kMaxCellPins + pin, the netlist's own pin layout;
  /// 0 for outputs, unconnected pins and unrouted nets.
  std::vector<double> pin_elmore_ps;
  double total_wire_cap_ff = 0.0;

  double elmore_ps(CellId cell, int pin) const {
    return pin_elmore_ps[static_cast<std::size_t>(cell) * kMaxCellPins +
                         static_cast<std::size_t>(pin)];
  }
};

ExtractionResult extract(const Netlist& nl, const RoutingResult& routes);

}  // namespace tpi
