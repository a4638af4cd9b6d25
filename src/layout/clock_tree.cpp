#include "layout/clock_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tpi {
namespace {

constexpr int kLeafBufferDrive = 4;   // CLKBUF_X4 at the leaves
constexpr int kTrunkBufferDrive = 8;  // CLKBUF_X8 above
constexpr int kMaxFanout = 18;        // sinks per buffer stage

struct SinkRef {
  PinRef pin;
  Point pos;
};

// Recursive geometric bisection into groups of at most `limit` sinks.
void kd_cluster(std::vector<SinkRef>& pts, std::size_t lo, std::size_t hi, std::size_t limit,
                std::vector<std::pair<std::size_t, std::size_t>>& groups) {
  if (hi - lo <= limit) {
    groups.emplace_back(lo, hi);
    return;
  }
  double lx = 1e300, hx = -1e300, ly = 1e300, hy = -1e300;
  for (std::size_t i = lo; i < hi; ++i) {
    lx = std::min(lx, pts[i].pos.x);
    hx = std::max(hx, pts[i].pos.x);
    ly = std::min(ly, pts[i].pos.y);
    hy = std::max(hy, pts[i].pos.y);
  }
  const bool split_x = (hx - lx) >= (hy - ly);
  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                   pts.begin() + static_cast<std::ptrdiff_t>(mid),
                   pts.begin() + static_cast<std::ptrdiff_t>(hi),
                   [split_x](const SinkRef& a, const SinkRef& b) {
                     return split_x ? a.pos.x < b.pos.x : a.pos.y < b.pos.y;
                   });
  kd_cluster(pts, lo, mid, limit, groups);
  kd_cluster(pts, mid, hi, limit, groups);
}

}  // namespace

CtsReport synthesize_clock_trees(Netlist& nl, const Floorplan& fp, Placement& pl) {
  CtsReport report;
  const CellSpec* leaf_buf = nl.library().gate(CellFunc::kClkBuf, 1, kLeafBufferDrive);
  const CellSpec* trunk_buf = nl.library().gate(CellFunc::kClkBuf, 1, kTrunkBufferDrive);
  assert(leaf_buf != nullptr && trunk_buf != nullptr);

  for (const int clock_pi : nl.clock_pis()) {
    const NetId root = nl.pi_net(clock_pi);
    const std::vector<PinRef> sinks = nl.net(root).sinks;  // copy; we re-home them
    if (static_cast<int>(sinks.size()) <= kMaxFanout) continue;
    ++report.domains;

    std::vector<SinkRef> level;
    level.reserve(sinks.size());
    for (const PinRef& s : sinks) {
      nl.disconnect(s.cell, s.pin);
      level.push_back(SinkRef{s, pl.pos[static_cast<std::size_t>(s.cell)]});
    }

    int depth = 0;
    while (static_cast<int>(level.size()) > kMaxFanout) {
      std::vector<std::pair<std::size_t, std::size_t>> groups;
      kd_cluster(level, 0, level.size(), static_cast<std::size_t>(kMaxFanout), groups);
      std::vector<SinkRef> next;
      next.reserve(groups.size());
      for (const auto& [lo, hi] : groups) {
        const CellSpec* spec = depth == 0 ? leaf_buf : trunk_buf;
        const std::string name = "cts_d" + std::to_string(clock_pi) + "_l" +
                                 std::to_string(depth) + "_" +
                                 std::to_string(report.buffers_added);
        const CellId buf = nl.add_cell(spec, name);
        const NetId out = nl.add_net(name + "_y");
        nl.connect(buf, spec->output_pin, out);
        double sx = 0, sy = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          nl.connect(level[i].pin.cell, level[i].pin.pin, out);
          sx += level[i].pos.x;
          sy += level[i].pos.y;
        }
        const Point centroid{sx / static_cast<double>(hi - lo),
                             sy / static_cast<double>(hi - lo)};
        report.new_cells.push_back(buf);
        ++report.buffers_added;
        next.push_back(SinkRef{PinRef{buf, spec->find_pin("A")}, centroid});
      }
      level = std::move(next);
      ++depth;
    }
    for (const SinkRef& s : level) nl.connect(s.pin.cell, s.pin.pin, root);
    report.tree_levels = std::max(report.tree_levels, depth);
  }
  if (!report.new_cells.empty()) eco_place(nl, fp, pl, report.new_cells);
  return report;
}

}  // namespace tpi
