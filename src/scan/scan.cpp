#include "scan/scan.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "util/log.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// The shared scan-enable primary input (created on first use).
constexpr const char* kScanEnablePi = "scan_en";

std::vector<CellId> scan_cells(const Netlist& nl) {
  std::vector<CellId> out;
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellSpec* spec = nl.cell(static_cast<CellId>(c)).spec;
    if (spec->sequential && spec->ti_pin >= 0) out.push_back(static_cast<CellId>(c));
  }
  return out;
}

}  // namespace

ScanInsertReport insert_scan(Netlist& nl) {
  TPI_SPAN("scan.insert");
  ScanInsertReport report;
  const CellSpec* sdff = nl.library().by_name("SDFF_X1");
  assert(sdff != nullptr);

  NetId se = nl.find_net(kScanEnablePi);
  if (se == kNoNet) {
    const int pi = nl.add_primary_input(kScanEnablePi);
    se = nl.pi_net(pi);
  }
  report.scan_enable_net = se;

  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellId cid = static_cast<CellId>(c);
    const CellSpec* spec = nl.cell(cid).spec;
    if (!spec->sequential) continue;
    if (spec->func == CellFunc::kDff) {
      nl.replace_spec(cid, sdff);
      ++report.converted_ffs;
    }
    const CellSpec* cur = nl.cell(cid).spec;
    if (cur->te_pin >= 0) {
      // Rehome TE to the shared scan enable (TSFFs arrive with a TPI
      // control net; one enable must drive the whole shift path).
      if (nl.cell(cid).conn[static_cast<std::size_t>(cur->te_pin)] != kNoNet) {
        nl.disconnect(cid, cur->te_pin);
      }
      nl.connect(cid, cur->te_pin, se);
      ++report.scan_cells;
    }
  }
  return report;
}

ChainPlan plan_chains(const Netlist& nl, const ScanOptions& opts,
                      const std::vector<Point>& position) {
  ChainPlan plan;
  const std::vector<CellId> cells = scan_cells(nl);
  if (cells.empty()) return plan;

  // Chain count from the §4.1 policy: balanced chains of at most
  // max_chain_length, or exactly max_chains balanced chains.
  const int total = static_cast<int>(cells.size());
  int chains;
  if (opts.max_chains > 0) {
    chains = std::min(opts.max_chains, total);
  } else {
    const int len = std::max(1, opts.max_chain_length);
    chains = (total + len - 1) / len;
  }
  const int l_max = (total + chains - 1) / chains;

  // One clock domain per chain: group cells by clock net first.
  std::map<NetId, std::vector<CellId>> by_domain;
  for (const CellId c : cells) {
    const CellSpec* spec = nl.cell(c).spec;
    const NetId ck = spec->clock_pin >= 0
                         ? nl.cell(c).conn[static_cast<std::size_t>(spec->clock_pin)]
                         : kNoNet;
    by_domain[ck].push_back(c);
  }

  for (auto& [ck, group] : by_domain) {
    (void)ck;
    if (!position.empty()) {
      // Layout-driven clustering: serpentine bands by y, then x, sliced
      // into contiguous chains, so each chain occupies a compact region.
      const double band = 200.0;  // µm
      std::stable_sort(group.begin(), group.end(), [&](CellId a, CellId b) {
        const Point& pa = position[static_cast<std::size_t>(a)];
        const Point& pb = position[static_cast<std::size_t>(b)];
        const int ba = static_cast<int>(pa.y / band);
        const int bb = static_cast<int>(pb.y / band);
        if (ba != bb) return ba < bb;
        return (ba % 2 == 0) ? pa.x < pb.x : pa.x > pb.x;
      });
    }
    const int n = static_cast<int>(group.size());
    const int domain_chains = (n + l_max - 1) / l_max;
    for (int k = 0; k < domain_chains; ++k) {
      const int lo = static_cast<int>(
          std::llround(static_cast<double>(k) * n / domain_chains));
      const int hi = static_cast<int>(
          std::llround(static_cast<double>(k + 1) * n / domain_chains));
      if (hi <= lo) continue;
      plan.chains.emplace_back(group.begin() + lo, group.begin() + hi);
    }
  }

  plan.num_chains = static_cast<int>(plan.chains.size());
  for (const auto& c : plan.chains) {
    plan.max_length = std::max(plan.max_length, static_cast<int>(c.size()));
  }
  return plan;
}

void reorder_chains(ChainPlan& plan, const std::vector<Point>& position) {
  for (auto& chain : plan.chains) {
    if (chain.size() < 3) continue;
    // Nearest-neighbour tour starting from the cell nearest the core edge
    // (scan-in arrives from the IO ring).
    std::vector<CellId> tour;
    std::vector<char> used(chain.size(), 0);
    std::size_t cur = 0;
    double best = 1e300;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const Point& p = position[static_cast<std::size_t>(chain[i])];
      const double d = p.x + p.y;
      if (d < best) {
        best = d;
        cur = i;
      }
    }
    tour.push_back(chain[cur]);
    used[cur] = 1;
    for (std::size_t step = 1; step < chain.size(); ++step) {
      const Point& pc = position[static_cast<std::size_t>(chain[cur])];
      double nearest = 1e300;
      std::size_t pick = 0;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (used[i]) continue;
        const double d = manhattan(position[static_cast<std::size_t>(chain[i])], pc);
        if (d < nearest) {
          nearest = d;
          pick = i;
        }
      }
      used[pick] = 1;
      tour.push_back(chain[pick]);
      cur = pick;
    }
    chain = std::move(tour);
  }
}

double chain_wire_length(const ChainPlan& plan, const std::vector<Point>& position) {
  double total = 0.0;
  for (const auto& chain : plan.chains) {
    for (std::size_t i = 1; i < chain.size(); ++i) {
      total += manhattan(position[static_cast<std::size_t>(chain[i - 1])],
                         position[static_cast<std::size_t>(chain[i])]);
    }
  }
  return total;
}

StitchReport stitch_chains(Netlist& nl, const ChainPlan& plan) {
  StitchReport report;
  for (std::size_t k = 0; k < plan.chains.size(); ++k) {
    const auto& chain = plan.chains[k];
    if (chain.empty()) continue;
    const int si = nl.add_primary_input("si" + std::to_string(k));
    NetId prev = nl.pi_net(si);
    ++report.scan_in_pis;
    for (const CellId cell : chain) {
      const CellSpec* spec = nl.cell(cell).spec;
      if (nl.cell(cell).conn[static_cast<std::size_t>(spec->ti_pin)] != kNoNet) {
        nl.disconnect(cell, spec->ti_pin);  // restitch (ECO path)
      }
      nl.connect(cell, spec->ti_pin, prev);
      prev = nl.cell(cell).output_net();
    }
    nl.add_primary_output("so" + std::to_string(k), prev);
    ++report.scan_out_pos;
  }
  report.num_chains = static_cast<int>(plan.chains.size());
  return report;
}

int buffer_high_fanout_net(Netlist& nl, NetId net, int max_fanout) {
  const CellSpec* buf = nl.library().by_name("BUF_X4");
  assert(buf != nullptr);
  if (max_fanout < 2) max_fanout = 2;
  std::vector<PinRef> level = nl.net(net).sinks;  // copy: we re-home them
  if (static_cast<int>(level.size()) <= max_fanout) return 0;
  for (const PinRef& s : level) nl.disconnect(s.cell, s.pin);

  int added = 0;
  while (static_cast<int>(level.size()) > max_fanout) {
    std::vector<PinRef> next;
    for (std::size_t lo = 0; lo < level.size(); lo += static_cast<std::size_t>(max_fanout)) {
      const std::size_t hi = std::min(level.size(), lo + static_cast<std::size_t>(max_fanout));
      const std::string name = nl.net(net).name + "_buf" + std::to_string(added);
      const CellId b = nl.add_cell(buf, name);
      const NetId out = nl.add_net(name + "_y");
      nl.connect(b, buf->output_pin, out);
      for (std::size_t i = lo; i < hi; ++i) nl.connect(level[i].cell, level[i].pin, out);
      next.push_back(PinRef{b, buf->find_pin("A")});
      ++added;
    }
    level = std::move(next);
  }
  for (const PinRef& p : level) nl.connect(p.cell, p.pin, net);
  return added;
}

}  // namespace tpi
