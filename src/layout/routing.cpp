#include "layout/routing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

constexpr double kGcellUm = 30.0;
// Routing tracks per gcell boundary per direction (6-metal stack: ~3
// layers per direction at ~0.5 µm average pitch, minus blockage).
constexpr float kTracksPerGcell = 165.0f;
// Extra length per overflowing crossing (ripped up and re-routed around the
// hotspot).
constexpr double kDetourPerOverflowUm = 18.0;

// Endpoint positions of a net: driver first, then cell sinks, then POs.
void net_endpoints(const Netlist& nl, const Placement& pl, NetId net_id,
                   std::vector<Point>& pts) {
  pts.clear();
  const Net& net = nl.net(net_id);
  if (net.driver.valid()) {
    pts.push_back(pl.pos[static_cast<std::size_t>(net.driver.cell)]);
  } else if (net.driven_by_pi()) {
    pts.push_back(pl.pi_pad[static_cast<std::size_t>(net.pi_index)]);
  } else {
    return;  // undriven net: nothing to route
  }
  for (const PinRef& s : net.sinks) pts.push_back(pl.pos[static_cast<std::size_t>(s.cell)]);
  for (const int po : net.po_sinks) pts.push_back(pl.po_pad[static_cast<std::size_t>(po)]);
}

// Prim rectilinear spanning tree over the endpoints.
RouteTree prim_tree(const std::vector<Point>& pts) {
  RouteTree tree;
  const std::size_t n = pts.size();
  tree.node = pts;
  tree.parent.assign(n, -1);
  tree.edge_um.assign(n, 0.0);
  if (n < 2) return tree;
  std::vector<char> in_tree(n, 0);
  std::vector<double> best(n, 1e300);
  std::vector<int> best_parent(n, 0);
  in_tree[0] = 1;
  for (std::size_t v = 1; v < n; ++v) {
    best[v] = manhattan(pts[0], pts[v]);
    best_parent[v] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = 0;
    double d = 1e300;
    for (std::size_t v = 1; v < n; ++v) {
      if (!in_tree[v] && best[v] < d) {
        d = best[v];
        pick = v;
      }
    }
    in_tree[pick] = 1;
    tree.parent[pick] = best_parent[pick];
    tree.edge_um[pick] = d;
    tree.length_um += d;
    for (std::size_t v = 1; v < n; ++v) {
      if (in_tree[v]) continue;
      const double dv = manhattan(pts[pick], pts[v]);
      if (dv < best[v]) {
        best[v] = dv;
        best_parent[v] = static_cast<int>(pick);
      }
    }
  }
  return tree;
}

struct Grid {
  int nx = 0, ny = 0;
  double gcell = 1.0;
  double ox = 0.0, oy = 0.0;
  std::vector<float> h_use;  // horizontal crossings, indexed [y * nx + x]
  std::vector<float> v_use;

  int gx(double x) const {
    return std::clamp(static_cast<int>((x - ox) / gcell), 0, nx - 1);
  }
  int gy(double y) const {
    return std::clamp(static_cast<int>((y - oy) / gcell), 0, ny - 1);
  }
};

// Walk the L-route of an edge (horizontal first), applying `f` to every
// gcell crossing: f(is_horizontal, x, y).
template <typename F>
void walk_l_route(const Grid& g, const Point& a, const Point& b, F&& f) {
  const int ax = g.gx(a.x), ay = g.gy(a.y);
  const int bx = g.gx(b.x), by = g.gy(b.y);
  const int step_x = ax <= bx ? 1 : -1;
  for (int x = ax; x != bx; x += step_x) f(true, std::min(x, x + step_x), ay);
  const int step_y = ay <= by ? 1 : -1;
  for (int y = ay; y != by; y += step_y) f(false, bx, std::min(y, y + step_y));
}

}  // namespace

RoutingResult route(const Netlist& nl, const Floorplan& fp, const Placement& pl) {
  TPI_SPAN("routing.route");
  RoutingResult res;
  res.nets.resize(nl.num_nets());

  Grid grid;
  grid.gcell = kGcellUm;
  grid.ox = fp.chip_box.lx;
  grid.oy = fp.chip_box.ly;
  grid.nx = std::max(1, static_cast<int>(std::ceil(fp.chip_box.width() / grid.gcell)));
  grid.ny = std::max(1, static_cast<int>(std::ceil(fp.chip_box.height() / grid.gcell)));
  grid.h_use.assign(static_cast<std::size_t>(grid.nx) * grid.ny, 0.0f);
  grid.v_use.assign(static_cast<std::size_t>(grid.nx) * grid.ny, 0.0f);

  // Pass 1: build trees, accumulate demand.
  std::vector<Point> pts;
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    net_endpoints(nl, pl, static_cast<NetId>(n), pts);
    RouteTree tree = prim_tree(pts);
    for (std::size_t v = 1; v < tree.node.size(); ++v) {
      const Point& a = tree.node[v];
      const Point& b = tree.node[static_cast<std::size_t>(tree.parent[v])];
      walk_l_route(grid, a, b, [&](bool horiz, int x, int y) {
        const std::size_t idx = static_cast<std::size_t>(y) * grid.nx + x;
        (horiz ? grid.h_use : grid.v_use)[idx] += 1.0f;
      });
    }
    res.nets[n] = std::move(tree);
  }

  // Pass 2: detour charge for crossings through over-capacity gcells.
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    RouteTree& tree = res.nets[n];
    int overflows = 0;
    for (std::size_t v = 1; v < tree.node.size(); ++v) {
      const Point& a = tree.node[v];
      const Point& b = tree.node[static_cast<std::size_t>(tree.parent[v])];
      int edge_overflows = 0;
      walk_l_route(grid, a, b, [&](bool horiz, int x, int y) {
        const std::size_t idx = static_cast<std::size_t>(y) * grid.nx + x;
        if ((horiz ? grid.h_use : grid.v_use)[idx] > kTracksPerGcell) ++edge_overflows;
      });
      if (edge_overflows > 0) {
        // One detour route skirts a contiguous hotspot; cap the charge so a
        // long edge through a congested region is not billed per gcell.
        const double extra = kDetourPerOverflowUm * std::min(edge_overflows, 3);
        tree.edge_um[v] += extra;
        tree.length_um += extra;
        res.detour_length_um += extra;
        overflows += edge_overflows;
      }
    }
    res.overflowed_crossings += overflows;
    res.total_wire_length_um += tree.length_um;
  }
  // Histogram accumulated locally and folded in once: nl.num_nets() can be
  // tens of thousands, one registry lock per net would dominate.
  HistogramData net_lengths;
  for (const RouteTree& tree : res.nets) net_lengths.observe(tree.length_um);
  MetricsRegistry& m = metrics();
  m.add("routing.nets", nl.num_nets());
  m.add("routing.overflowed_crossings",
        static_cast<std::uint64_t>(res.overflowed_crossings));
  m.record_histogram("routing.net_length_um", net_lengths);
  return res;
}

}  // namespace tpi
