// SVG rendering of layout stages — reproduces the paper's Fig. 3:
// (a) after floorplanning, (b) after placement, (c) after routing.
#pragma once

#include <string>

#include "layout/placement.hpp"
#include "layout/routing.hpp"

namespace tpi {

enum class LayoutStage {
  kFloorplan,  ///< rings + empty rows (Fig. 3a)
  kPlacement,  ///< rings + placed cells (Fig. 3b)
  kRouted,     ///< + a sample of routed nets (Fig. 3c)
};

/// Render one stage to an SVG string at 2 px per µm, drawing at most 400
/// routed nets. `pl` may be null for kFloorplan; `routes` may be null
/// except for kRouted.
std::string render_layout_svg(const Netlist& nl, const Floorplan& fp, const Placement* pl,
                              const RoutingResult* routes, LayoutStage stage);

/// Convenience: render and write to a file; returns false on I/O failure.
bool write_layout_svg(const std::string& path, const Netlist& nl, const Floorplan& fp,
                      const Placement* pl, const RoutingResult* routes, LayoutStage stage);

}  // namespace tpi
