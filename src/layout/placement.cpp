#include "layout/placement.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "util/metrics.hpp"
#include "util/rank.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Centroid-attraction iterations of global placement; it spreads the
// cells every kSpreadEvery iterations.
constexpr int kGlobalIterations = 20;
constexpr int kSpreadEvery = 3;
// Nets with more fanout than this are ignored by the placer (clock, scan
// enable); they would otherwise pull everything to one point.
constexpr std::size_t kNetFanoutLimit = 48;

bool placeable(const Netlist& nl, CellId c) {
  return nl.cell(c).spec->func != CellFunc::kFiller;
}

// `cells` in ascending order of one coordinate of their positions, ties
// in list order (a stable sort, see rank_by_key).
std::vector<CellId> sorted_by(const std::vector<Point>& xy, const std::vector<CellId>& cells,
                              double Point::*axis) {
  std::vector<double> key(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    key[i] = xy[static_cast<std::size_t>(cells[i])].*axis;
  }
  const std::vector<std::uint32_t> rank = rank_by_key(key);
  std::vector<CellId> out(cells.size());
  for (std::size_t i = 0; i < rank.size(); ++i) out[i] = cells[rank[i]];
  return out;
}

}  // namespace

// Distribute IO pads evenly around the chip boundary, PIs then POs.
void assign_io_pads(const Netlist& nl, const Floorplan& fp, Placement& pl) {
  const std::size_t total = nl.num_pis() + nl.num_pos();
  pl.pi_pad.resize(nl.num_pis());
  pl.po_pad.resize(nl.num_pos());
  if (total == 0) return;
  const Rect& box = fp.chip_box;
  const double perim = 2.0 * (box.width() + box.height());
  for (std::size_t i = 0; i < total; ++i) {
    double d = perim * (static_cast<double>(i) + 0.5) / static_cast<double>(total);
    Point p;
    if (d < box.width()) {
      p = Point{box.lx + d, box.ly};
    } else if ((d -= box.width()) < box.height()) {
      p = Point{box.hx, box.ly + d};
    } else if ((d -= box.height()) < box.width()) {
      p = Point{box.hx - d, box.hy};
    } else {
      d -= box.width();
      p = Point{box.lx, box.hy - d};
    }
    if (i < nl.num_pis()) {
      pl.pi_pad[i] = p;
    } else {
      pl.po_pad[i - nl.num_pis()] = p;
    }
  }
}

namespace {

// Repack one row: cells keep their left-to-right order, are pulled toward
// their current centres, and are shifted left as needed to fit the row.
void repack_row(const Netlist& nl, const Floorplan& fp, Placement& pl, int row) {
  auto& order = pl.row_order[static_cast<std::size_t>(row)];
  order = sorted_by(pl.pos, order, &Point::x);
  const double site = fp.site_width_um;
  const double row_end = fp.core_box.lx + fp.row_length_um;
  std::vector<double> left(order.size());
  double cursor = fp.core_box.lx;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const CellId c = order[i];
    const double w = nl.cell(c).spec->width_um;
    double desired = pl.pos[static_cast<std::size_t>(c)].x - w / 2.0;
    desired = std::floor((desired - fp.core_box.lx) / site) * site + fp.core_box.lx;
    left[i] = std::max(cursor, desired);
    cursor = left[i] + w;
  }
  // Shift-left pass from the right if the row overflowed.
  double limit = row_end;
  for (std::size_t i = order.size(); i-- > 0;) {
    const double w = nl.cell(order[i]).spec->width_um;
    if (left[i] + w > limit) left[i] = limit - w;
    limit = left[i];
  }
  const double y = fp.row_y(row) + fp.row_height_um / 2.0;
  double used = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const CellId c = order[i];
    const double w = nl.cell(c).spec->width_um;
    pl.pos[static_cast<std::size_t>(c)] = Point{left[i] + w / 2.0, y};
    pl.row[static_cast<std::size_t>(c)] = row;
    used += w;
  }
  pl.row_used_um[static_cast<std::size_t>(row)] = used;
}

// The global phase's flat physical view, built once per place() call from
// the netlist structure. Pins index one position array: the cells by
// CellId, then the PI pads, then the PO pads. Only the nets the placer
// weighs get a row: fanout within kNetFanoutLimit and two or more
// pins.
struct GlobalView {
  std::vector<Point> xy;
  // Net -> pin CSR, each row in add order: driver, PI pad, sinks, PO pads.
  std::vector<std::uint32_t> net_begin, net_pin;
  std::vector<double> net_weight;  ///< 1 / pins per net row
  // Movable cell -> net row CSR (movable order), in conn order.
  std::vector<std::uint32_t> cell_begin, cell_net;
  std::vector<double> cell_weight;  ///< sum of net_weight over each cell row

  // Takes over pl.pos (place() reserves room for the pads in it) until
  // release() hands the cell positions back.
  GlobalView(const Netlist& nl, const std::vector<CellId>& movable, Placement& pl)
      : xy(std::move(pl.pos)) {
    const std::size_t n_cells = xy.size();
    const std::size_t po_base = n_cells + pl.pi_pad.size();
    xy.insert(xy.end(), pl.pi_pad.begin(), pl.pi_pad.end());
    xy.insert(xy.end(), pl.po_pad.begin(), pl.po_pad.end());

    // Count, then fill, so every array is sized exactly.
    constexpr std::uint32_t kUnweighed = ~std::uint32_t{0};
    std::vector<std::uint32_t> row_of(nl.num_nets(), kUnweighed);
    std::uint32_t rows = 0;
    std::size_t pins = 0;
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const Net& net = nl.net(static_cast<NetId>(n));
      if (net.fanout() > kNetFanoutLimit) continue;
      const std::size_t k = std::size_t{net.driver.valid()} + std::size_t{net.driven_by_pi()} +
                            net.fanout();
      if (k < 2) continue;
      row_of[n] = rows++;
      pins += k;
    }
    net_begin.reserve(rows + 1);
    net_pin.reserve(pins);
    net_weight.reserve(rows);
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      if (row_of[n] == kUnweighed) continue;
      const Net& net = nl.net(static_cast<NetId>(n));
      net_begin.push_back(static_cast<std::uint32_t>(net_pin.size()));
      auto add = [&](std::size_t p) { net_pin.push_back(static_cast<std::uint32_t>(p)); };
      if (net.driver.valid()) add(static_cast<std::size_t>(net.driver.cell));
      if (net.driven_by_pi()) add(n_cells + static_cast<std::size_t>(net.pi_index));
      for (const PinRef& s : net.sinks) add(static_cast<std::size_t>(s.cell));
      for (const int po : net.po_sinks) add(po_base + static_cast<std::size_t>(po));
      const std::size_t k = net_pin.size() - net_begin.back();
      net_weight.push_back(1.0 / static_cast<double>(k));
    }
    net_begin.push_back(static_cast<std::uint32_t>(net_pin.size()));

    std::size_t refs = 0;
    auto weighed = [&](NetId n) {
      return n != kNoNet && row_of[static_cast<std::size_t>(n)] != kUnweighed;
    };
    for (const CellId c : movable) {
      for (const NetId n : nl.cell(c).conn) refs += weighed(n);
    }
    cell_begin.reserve(movable.size() + 1);
    cell_net.reserve(refs);
    cell_weight.reserve(movable.size());
    for (const CellId c : movable) {
      cell_begin.push_back(static_cast<std::uint32_t>(cell_net.size()));
      double weight = 0.0;
      for (const NetId n : nl.cell(c).conn) {
        if (!weighed(n)) continue;
        const std::uint32_t r = row_of[static_cast<std::size_t>(n)];
        cell_net.push_back(r);
        weight += net_weight[r];
      }
      cell_weight.push_back(weight);
    }
    cell_begin.push_back(static_cast<std::uint32_t>(cell_net.size()));
  }

  void release(Placement& pl) {
    xy.resize(xy.size() - pl.pi_pad.size() - pl.po_pad.size());
    pl.pos = std::move(xy);
  }
};

// Centroid attraction with rank spreading every kSpreadEvery
// iterations (and after the last): each iteration moves every movable cell
// to the weighted mean of its nets' centroids (pads included: they anchor
// the placement to the ring), weighting a net by 1 / pins; spreading keeps
// the cells' x and y orders and restores uniform density across the core.
void global_place(const Netlist& nl, const Floorplan& fp, const std::vector<CellId>& movable,
                  Placement& pl) {
  GlobalView v(nl, movable, pl);
  // Each net's centroid times its weight: a cell's pull sums these.
  std::vector<Point> pull(v.net_weight.size());
  auto spread = [&](double Point::*axis, double lo, double extent) {
    const std::vector<CellId> order = sorted_by(v.xy, movable, axis);
    for (std::size_t r = 0; r < order.size(); ++r) {
      v.xy[static_cast<std::size_t>(order[r])].*axis =
          lo + (static_cast<double>(r) + 0.5) / static_cast<double>(order.size()) * extent;
    }
  };
  for (int iter = 0; iter < kGlobalIterations; ++iter) {
    for (std::size_t j = 0; j < pull.size(); ++j) {
      double sx = 0, sy = 0;
      for (std::uint32_t p = v.net_begin[j]; p < v.net_begin[j + 1]; ++p) {
        sx += v.xy[v.net_pin[p]].x;
        sy += v.xy[v.net_pin[p]].y;
      }
      const double k = static_cast<double>(v.net_begin[j + 1] - v.net_begin[j]);
      const Point centroid{sx / k, sy / k};
      pull[j] = Point{centroid.x * v.net_weight[j], centroid.y * v.net_weight[j]};
    }
    for (std::size_t i = 0; i < movable.size(); ++i) {
      if (v.cell_weight[i] <= 0) continue;
      double nx = 0, ny = 0;
      for (std::uint32_t e = v.cell_begin[i]; e < v.cell_begin[i + 1]; ++e) {
        nx += pull[v.cell_net[e]].x;
        ny += pull[v.cell_net[e]].y;
      }
      v.xy[static_cast<std::size_t>(movable[i])] =
          Point{nx / v.cell_weight[i], ny / v.cell_weight[i]};
    }
    if ((iter + 1) % kSpreadEvery == 0 || iter + 1 == kGlobalIterations) {
      spread(&Point::x, fp.core_box.lx, fp.core_box.width());
      spread(&Point::y, fp.core_box.ly, fp.core_box.height());
    }
  }
  v.release(pl);
}

}  // namespace

double Placement::total_hpwl(const Netlist& nl) const {
  double total = 0.0;
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(static_cast<NetId>(n));
    HpwlAccumulator acc;
    if (net.driver.valid()) acc.add(pos[static_cast<std::size_t>(net.driver.cell)]);
    if (net.driven_by_pi()) acc.add(pi_pad[static_cast<std::size_t>(net.pi_index)]);
    for (const PinRef& s : net.sinks) acc.add(pos[static_cast<std::size_t>(s.cell)]);
    for (const int po : net.po_sinks) acc.add(po_pad[static_cast<std::size_t>(po)]);
    total += acc.value();
  }
  return total;
}

Placement place(const Netlist& nl, const Floorplan& fp) {
  Placement pl;
  const std::size_t n_cells = nl.num_cells();
  pl.pos.reserve(n_cells + nl.num_pis() + nl.num_pos());  // GlobalView appends the pads
  pl.pos.assign(n_cells, fp.core_box.center());
  pl.row.assign(n_cells, -1);
  pl.row_order.assign(static_cast<std::size_t>(fp.num_rows), {});
  pl.row_used_um.assign(static_cast<std::size_t>(fp.num_rows), 0.0);
  assign_io_pads(nl, fp, pl);

  std::vector<CellId> movable;
  for (std::size_t c = 0; c < n_cells; ++c) {
    if (placeable(nl, static_cast<CellId>(c))) movable.push_back(static_cast<CellId>(c));
  }
  if (movable.empty()) return pl;

  // Initial placement: netlist-order serpentine across the core. Netlist
  // order follows synthesis locality, and — unlike a graph traversal — it
  // is stable under small netlist edits, so layouts for different
  // test-point counts start from comparable seeds (fair comparison, §4.1).
  {
    const std::vector<CellId>& order = movable;
    const double rows_d = static_cast<double>(fp.num_rows);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(order.size());
      const int r = std::min(fp.num_rows - 1, static_cast<int>(t * rows_d));
      const double frac_in_row = t * rows_d - r;
      const double x = (r % 2 == 0)
                           ? fp.core_box.lx + frac_in_row * fp.core_box.width()
                           : fp.core_box.hx - frac_in_row * fp.core_box.width();
      pl.pos[static_cast<std::size_t>(order[i])] =
          Point{x, fp.row_y(r) + fp.row_height_um / 2.0};
    }
  }

  // ---- global placement: centroid attraction + rank spreading ----
  // Sequential phase spans: TraceSpan is scope-bound, so the optional lets
  // the global/legalise phases share straight-line code without nesting.
  std::optional<TraceSpan> phase_span;
  phase_span.emplace("placement.global");
  global_place(nl, fp, movable, pl);
  phase_span.reset();
  metrics().add("placement.global_iterations", static_cast<std::uint64_t>(kGlobalIterations));

  // ---- legalisation: assign rows by y with balanced fill ----
  phase_span.emplace("placement.legalize");
  const std::vector<CellId> by_y = sorted_by(pl.pos, movable, &Point::y);
  double total_width = 0.0;
  for (const CellId c : by_y) total_width += nl.cell(c).spec->width_um;
  const double width_per_row = total_width / fp.num_rows;
  double cum = 0.0;
  for (const CellId c : by_y) {
    const double w = nl.cell(c).spec->width_um;
    int row = std::min(fp.num_rows - 1, static_cast<int>(cum / width_per_row));
    // Guard against a row overflowing its physical capacity.
    while (row < fp.num_rows - 1 &&
           pl.row_used_um[static_cast<std::size_t>(row)] + w > fp.row_length_um) {
      ++row;
    }
    pl.row_order[static_cast<std::size_t>(row)].push_back(c);
    pl.row_used_um[static_cast<std::size_t>(row)] += w;
    cum += w;
  }
  for (int r = 0; r < fp.num_rows; ++r) repack_row(nl, fp, pl, r);
  return pl;
}

void eco_place(const Netlist& nl, const Floorplan& fp, Placement& pl,
               const std::vector<CellId>& new_cells) {
  pl.pos.resize(nl.num_cells(), fp.core_box.center());
  pl.row.resize(nl.num_cells(), -1);
  for (const CellId c : new_cells) {
    const CellInst& inst = nl.cell(c);
    // Connectivity centroid over already-placed neighbours and pads.
    double sx = 0, sy = 0;
    int k = 0;
    for (const NetId n : inst.conn) {
      if (n == kNoNet) continue;
      const Net& net = nl.net(n);
      if (net.driver.valid() && net.driver.cell != c &&
          pl.row[static_cast<std::size_t>(net.driver.cell)] >= 0) {
        sx += pl.pos[static_cast<std::size_t>(net.driver.cell)].x;
        sy += pl.pos[static_cast<std::size_t>(net.driver.cell)].y;
        ++k;
      }
      for (const PinRef& s : net.sinks) {
        if (s.cell == c || pl.row[static_cast<std::size_t>(s.cell)] < 0) continue;
        sx += pl.pos[static_cast<std::size_t>(s.cell)].x;
        sy += pl.pos[static_cast<std::size_t>(s.cell)].y;
        ++k;
        if (k > 24) break;  // centroid estimate is enough for huge nets
      }
    }
    const Point desired = k > 0 ? Point{sx / k, sy / k} : fp.core_box.center();
    const double w = inst.spec->width_um;
    const int home = fp.nearest_row(desired.y);
    int chosen = -1;
    for (int radius = 0; radius < fp.num_rows && chosen < 0; ++radius) {
      for (const int r : {home - radius, home + radius}) {
        if (r < 0 || r >= fp.num_rows) continue;
        if (pl.row_used_um[static_cast<std::size_t>(r)] + w <= fp.row_length_um) {
          chosen = r;
          break;
        }
      }
    }
    if (chosen < 0) {
      // Pathological overflow: take the least-used row (the repack keeps
      // the row packed; the core is simply over target utilisation).
      chosen = 0;
      for (int r = 1; r < fp.num_rows; ++r) {
        if (pl.row_used_um[static_cast<std::size_t>(r)] <
            pl.row_used_um[static_cast<std::size_t>(chosen)]) {
          chosen = r;
        }
      }
    }
    pl.pos[static_cast<std::size_t>(c)] = Point{desired.x, fp.row_y(chosen)};
    pl.row_order[static_cast<std::size_t>(chosen)].push_back(c);
    repack_row(nl, fp, pl, chosen);
  }
}

FillerReport insert_fillers(Netlist& nl, const Floorplan& fp, Placement& pl) {
  FillerReport report;
  const auto& fillers = nl.library().fillers();  // widest first
  if (fillers.empty()) return report;
  const double site = fp.site_width_um;
  for (int r = 0; r < fp.num_rows; ++r) {
    // Collect occupied intervals.
    struct Span {
      double lo, hi;
    };
    std::vector<Span> spans;
    for (const CellId c : pl.row_order[static_cast<std::size_t>(r)]) {
      const double w = nl.cell(c).spec->width_um;
      const double x = pl.pos[static_cast<std::size_t>(c)].x - w / 2.0;
      spans.push_back(Span{x, x + w});
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });
    double cursor = fp.core_box.lx;
    const double row_end = fp.core_box.lx + fp.row_length_um;
    auto fill_gap = [&](double lo, double hi) {
      int gap_sites = static_cast<int>(std::round((hi - lo) / site));
      double x = lo;
      while (gap_sites > 0) {
        const CellSpec* pick = nullptr;
        for (const CellSpec* f : fillers) {
          const int w = static_cast<int>(std::round(f->width_um / site));
          if (w <= gap_sites) {
            pick = f;
            break;
          }
        }
        if (pick == nullptr) break;  // no 1-site filler? (library always has FILL1)
        const CellId fc =
            nl.add_cell(pick, "fill_r" + std::to_string(r) + "_" +
                                  std::to_string(report.cells_added));
        pl.pos.push_back(Point{x + pick->width_um / 2.0, fp.row_y(r) + fp.row_height_um / 2.0});
        pl.row.push_back(r);
        pl.row_order[static_cast<std::size_t>(r)].push_back(fc);
        ++report.cells_added;
        report.area_um2 += pick->area_um2();
        const int w = static_cast<int>(std::round(pick->width_um / site));
        gap_sites -= w;
        x += pick->width_um;
      }
    };
    for (const Span& s : spans) {
      if (s.lo > cursor + 1e-9) fill_gap(cursor, s.lo);
      cursor = std::max(cursor, s.hi);
    }
    if (cursor < row_end - 1e-9) fill_gap(cursor, row_end);
  }
  return report;
}

}  // namespace tpi
