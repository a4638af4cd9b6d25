#include "layout/svg.hpp"

#include <fstream>
#include <sstream>

namespace tpi {
namespace {

constexpr double kScale = 2.0;              // SVG pixels per µm
constexpr std::size_t kMaxDrawnNets = 400;  // routed-net sample size (Fig. 3c)

const char* cell_color(const CellSpec& spec) {
  switch (spec.func) {
    case CellFunc::kTsff: return "#d62728";    // test points: red
    case CellFunc::kDff:
    case CellFunc::kSdff: return "#1f77b4";    // flip-flops: blue
    case CellFunc::kClkBuf: return "#2ca02c";  // clock buffers: green
    case CellFunc::kFiller: return "#dddddd";  // fillers: light grey
    default: return "#9b9b9b";                 // logic: grey
  }
}

}  // namespace

std::string render_layout_svg(const Netlist& nl, const Floorplan& fp, const Placement* pl,
                              const RoutingResult* routes, LayoutStage stage) {
  const Rect& chip = fp.chip_box;
  const double s = kScale;
  const double w = chip.width() * s, h = chip.height() * s;
  auto X = [&](double x) { return (x - chip.lx) * s; };
  auto Y = [&](double y) { return (chip.hy - y) * s; };  // flip: SVG y grows down

  std::ostringstream svg;
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='" << w << "' height='" << h
      << "' viewBox='0 0 " << w << " " << h << "'>\n";
  svg << "<rect x='0' y='0' width='" << w << "' height='" << h
      << "' fill='#fcfcf7' stroke='#333' stroke-width='2'/>\n";

  // IO / power / ground rings (concentric rectangles inside the chip edge).
  const double ring_gap[3] = {10.0, 45.0, 60.0};
  const char* ring_color[3] = {"#8c6d31", "#b22222", "#1a55a0"};  // io, power, ground
  for (int r = 0; r < 3; ++r) {
    Rect box = chip;
    box.expand(-ring_gap[r]);
    svg << "<rect x='" << X(box.lx) << "' y='" << Y(box.hy) << "' width='" << box.width() * s
        << "' height='" << box.height() * s << "' fill='none' stroke='" << ring_color[r]
        << "' stroke-width='" << (r == 0 ? 4.0 : 2.5) << "'/>\n";
  }

  // Core rows: alternating strips (power strip at top, ground at bottom of
  // each cell row — drawn as row outlines).
  for (int r = 0; r < fp.num_rows; ++r) {
    svg << "<rect x='" << X(fp.core_box.lx) << "' y='" << Y(fp.row_y(r) + fp.row_height_um)
        << "' width='" << fp.row_length_um * s << "' height='" << fp.row_height_um * s
        << "' fill='" << (r % 2 ? "#f3f3ec" : "#ecf0f3") << "' stroke='#c9c9c9'"
        << " stroke-width='0.4'/>\n";
  }

  if (stage != LayoutStage::kFloorplan && pl != nullptr) {
    for (std::size_t c = 0; c < nl.num_cells() && c < pl->pos.size(); ++c) {
      const CellSpec* spec = nl.cell(static_cast<CellId>(c)).spec;
      if (pl->row[c] < 0 && spec->func != CellFunc::kFiller) continue;
      const Point& p = pl->pos[c];
      const double cw = spec->width_um * s, ch = spec->height_um * s;
      svg << "<rect x='" << X(p.x) - cw / 2 << "' y='" << Y(p.y) - ch / 2 << "' width='" << cw
          << "' height='" << ch << "' fill='" << cell_color(*spec)
          << "' stroke='none' opacity='0.85'/>\n";
    }
  }

  if (stage == LayoutStage::kRouted && routes != nullptr && pl != nullptr) {
    // Draw a sample of nets as L-routes (all of them would be solid ink).
    std::size_t drawn = 0;
    const std::size_t step = std::max<std::size_t>(1, routes->nets.size() / kMaxDrawnNets);
    for (std::size_t n = 0; n < routes->nets.size() && drawn < kMaxDrawnNets; n += step) {
      const RouteTree& tree = routes->nets[n];
      if (tree.node.size() < 2) continue;
      ++drawn;
      for (std::size_t v = 1; v < tree.node.size(); ++v) {
        const Point& a = tree.node[v];
        const Point& b = tree.node[static_cast<std::size_t>(tree.parent[v])];
        svg << "<polyline points='" << X(a.x) << "," << Y(a.y) << " " << X(b.x) << "," << Y(a.y)
            << " " << X(b.x) << "," << Y(b.y)
            << "' fill='none' stroke='#4878a8' stroke-width='0.5' opacity='0.55'/>\n";
      }
    }
  }

  svg << "</svg>\n";
  return svg.str();
}

bool write_layout_svg(const std::string& path, const Netlist& nl, const Floorplan& fp,
                      const Placement* pl, const RoutingResult* routes, LayoutStage stage) {
  std::ofstream out(path);
  if (!out) return false;
  out << render_layout_svg(nl, fp, pl, routes, stage);
  return static_cast<bool>(out);
}

}  // namespace tpi
