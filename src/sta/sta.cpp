#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

#include "netlist/design_db.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

constexpr double kNegInf = -1.0e30;
// Transition times at the timing sources: every non-clock primary input
// and every clock root.
constexpr double kPiInputSlewPs = 100.0;
constexpr double kClockRootSlewPs = 80.0;

struct NetArrival {
  double arrival_ps = kNegInf;
  double slew_ps = 0.0;
  CellId prev_cell = kNoCell;  ///< driver cell whose arc set the arrival
  int prev_pin = -1;           ///< that cell's critical input pin
};

class StaEngine {
 public:
  /// `topo` must be levelize(nl, SeqView::kApplication); both the forward
  /// arrival pass and the backward slack pass walk the same order.
  StaEngine(const Netlist& nl, const ExtractionResult& px, const TopoOrder& topo)
      : nl_(nl), px_(px), topo_(topo) {}

  StaResult run() {
    net_.assign(nl_.num_nets(), NetArrival{});
    ck_arrival_.assign(nl_.num_cells(), 0.0);
    ck_slew_.assign(nl_.num_cells(), kClockRootSlewPs);
    ck_domain_.assign(nl_.num_cells(), -1);
    slow_cell_.assign(nl_.num_cells(), 0);

    propagate_clocks();
    propagate_data();
    find_critical_paths();
    compute_slacks();

    StaResult res;
    res.worst = worst_;
    res.per_domain = per_domain_;
    for (const char s : slow_cell_) res.slow_nodes += s;
    res.net_slack_ps = std::move(slack_);
    res.arrival_ps.resize(nl_.num_nets());
    for (std::size_t n = 0; n < nl_.num_nets(); ++n) res.arrival_ps[n] = net_[n].arrival_ps;
    return res;
  }

 private:
  double load_of(NetId net) const {
    return net == kNoNet ? 0.0 : px_.nets[static_cast<std::size_t>(net)].total_cap_ff;
  }
  double lookup(const NldmTable& table, double slew, double load, CellId cell) {
    const NldmTable::Lookup r = table.lookup(slew, load);
    if (r.extrapolated) slow_cell_[static_cast<std::size_t>(cell)] = 1;
    return r.value_ps;
  }
  static double intrinsic_of(const TimingArc& arc) {
    // Intrinsic delay: near-zero input slew, no output load (§4.4) — the
    // first grid point of the characterisation.
    return arc.delay.lookup(arc.delay.slew_axis().front(), arc.delay.load_axis().front())
        .value_ps;
  }

  void propagate_clocks() {
    struct Item {
      NetId net;
      double arrival;
      double slew;
    };
    std::queue<Item> q;
    for (const int pi : nl_.clock_pis()) {
      q.push(Item{nl_.pi_net(pi), 0.0, kClockRootSlewPs});
      clock_root_of_[nl_.pi_net(pi)] = pi;
    }
    while (!q.empty()) {
      const Item it = q.front();
      q.pop();
      const Net& net = nl_.net(it.net);
      const int domain = clock_root_of_[it.net];
      for (const PinRef& s : net.sinks) {
        const CellInst& inst = nl_.cell(s.cell);
        const double wire = px_.elmore_ps(s.cell, s.pin);
        const double pin_arr = it.arrival + wire;
        const double pin_slew = it.slew + wire;
        if (inst.spec->sequential && s.pin == inst.spec->clock_pin) {
          ck_arrival_[static_cast<std::size_t>(s.cell)] = pin_arr;
          ck_slew_[static_cast<std::size_t>(s.cell)] = pin_slew;
          ck_domain_[static_cast<std::size_t>(s.cell)] = domain;
        } else if (inst.spec->func == CellFunc::kClkBuf) {
          const TimingArc* arc = inst.spec->arc_from(s.pin);
          const NetId out = inst.output_net();
          if (arc == nullptr || out == kNoNet) continue;
          const double d = lookup(arc->delay, pin_slew, load_of(out), s.cell);
          const double sl = lookup(arc->out_slew, pin_slew, load_of(out), s.cell);
          clock_root_of_[out] = domain;
          q.push(Item{out, pin_arr + d, sl});
        }
      }
    }
  }

  void propagate_data() {
    // Sources: primary inputs (non-clock) and boundary flip-flop outputs.
    for (std::size_t i = 0; i < nl_.num_pis(); ++i) {
      const NetId n = nl_.pi_net(static_cast<int>(i));
      if (nl_.is_clock_net(n)) continue;
      net_[static_cast<std::size_t>(n)].arrival_ps = 0.0;
      net_[static_cast<std::size_t>(n)].slew_ps = kPiInputSlewPs;
    }
    for (std::size_t c = 0; c < nl_.num_cells(); ++c) {
      const CellId cid = static_cast<CellId>(c);
      const CellInst& inst = nl_.cell(cid);
      if (!inst.spec->sequential) continue;
      if (is_boundary(nl_, cid, SeqView::kApplication)) {
        const NetId q = inst.output_net();
        if (q == kNoNet) continue;
        const TimingArc* arc = inst.spec->arc_from(inst.spec->clock_pin);
        if (arc == nullptr) continue;
        const double d = lookup(arc->delay, ck_slew_[c], load_of(q), cid);
        const double sl = lookup(arc->out_slew, ck_slew_[c], load_of(q), cid);
        auto& na = net_[static_cast<std::size_t>(q)];
        na.arrival_ps = ck_arrival_[c] + d;
        na.slew_ps = sl;
        na.prev_cell = cid;
        na.prev_pin = inst.spec->clock_pin;
      }
    }

    for (const CellId cid : topo_.order) {
      const CellInst& inst = nl_.cell(cid);
      const NetId out = inst.output_net();
      if (out == kNoNet) continue;
      auto& na = net_[static_cast<std::size_t>(out)];
      const double out_load = load_of(out);
      for (const TimingArc& arc : inst.spec->arcs) {
        // Blocked false path (§4.4): the TSFF CK->Q arc is test-mode only.
        if (inst.spec->pins[static_cast<std::size_t>(arc.from_pin)].is_clock) continue;
        const NetId in = inst.conn[static_cast<std::size_t>(arc.from_pin)];
        if (in == kNoNet) continue;
        const auto& ia = net_[static_cast<std::size_t>(in)];
        if (ia.arrival_ps <= kNegInf) continue;
        const double wire = px_.elmore_ps(cid, arc.from_pin);
        const double pin_slew = ia.slew_ps + wire;
        const double d = lookup(arc.delay, pin_slew, out_load, cid);
        const double cand = ia.arrival_ps + wire + d;
        if (cand > na.arrival_ps) {
          na.arrival_ps = cand;
          na.slew_ps = lookup(arc.out_slew, pin_slew, out_load, cid);
          na.prev_cell = cid;
          na.prev_pin = arc.from_pin;
        }
      }
    }
  }

  // Effective period P of an endpoint: data arrival at D + setup − capture
  // clock arrival. F_max = 1 / max(P).
  void find_critical_paths() {
    per_domain_.assign(nl_.clock_pis().size(), CriticalPath{});
    for (std::size_t c = 0; c < nl_.num_cells(); ++c) {
      const CellId cid = static_cast<CellId>(c);
      const CellInst& inst = nl_.cell(cid);
      if (!inst.spec->sequential || inst.spec->d_pin < 0) continue;
      const NetId d_net = inst.conn[static_cast<std::size_t>(inst.spec->d_pin)];
      if (d_net == kNoNet) continue;
      const auto& na = net_[static_cast<std::size_t>(d_net)];
      if (na.arrival_ps <= kNegInf) continue;
      const double wire = px_.elmore_ps(cid, inst.spec->d_pin);
      const double p = na.arrival_ps + wire + inst.spec->setup_ps - ck_arrival_[c];
      const int domain_pi = ck_domain_[c];
      int domain_slot = -1;
      for (std::size_t k = 0; k < nl_.clock_pis().size(); ++k) {
        if (nl_.clock_pis()[k] == domain_pi) domain_slot = static_cast<int>(k);
      }
      auto consider = [&](CriticalPath& slot) {
        if (slot.valid && p <= slot.t_cp_ps) return;
        slot = trace_path(cid, d_net, p);
        slot.clock_pi = domain_pi;
      };
      if (domain_slot >= 0) consider(per_domain_[static_cast<std::size_t>(domain_slot)]);
      consider(worst_);
    }
  }

  CriticalPath trace_path(CellId capture, NetId d_net, double p) {
    CriticalPath cp;
    cp.valid = true;
    cp.capture_ff = capture;
    cp.t_cp_ps = p;
    const CellInst& cap_inst = nl_.cell(capture);
    cp.t_setup_ps = cap_inst.spec->setup_ps;
    cp.t_wires_ps += px_.elmore_ps(capture, cap_inst.spec->d_pin);

    double launch_ck = 0.0;
    NetId net = d_net;
    for (int guard = 0; guard < 1'000'000; ++guard) {
      const auto& na = net_[static_cast<std::size_t>(net)];
      if (na.prev_cell == kNoCell) break;  // primary input launch
      const CellInst& inst = nl_.cell(na.prev_cell);
      const TimingArc* arc = inst.spec->arc_from(na.prev_pin);
      assert(arc != nullptr);
      const NetId in = inst.conn[static_cast<std::size_t>(na.prev_pin)];
      const bool is_launch_ff =
          inst.spec->sequential && na.prev_pin == inst.spec->clock_pin;
      // Recompute this arc's delay exactly as the forward pass did.
      const double wire = is_launch_ff ? 0.0 : px_.elmore_ps(na.prev_cell, na.prev_pin);
      const double pin_slew = is_launch_ff
                                  ? ck_slew_[static_cast<std::size_t>(na.prev_cell)]
                                  : net_[static_cast<std::size_t>(in)].slew_ps + wire;
      const double d =
          arc->delay.lookup(pin_slew, load_of(net)).value_ps;
      const double intrinsic = intrinsic_of(*arc);
      cp.t_intrinsic_ps += intrinsic;
      cp.t_load_dep_ps += d - intrinsic;
      cp.cells.push_back(na.prev_cell);
      ++cp.logic_cells_on_path;
      if (inst.spec->func == CellFunc::kTsff) ++cp.test_points_on_path;
      if (is_launch_ff) {
        cp.launch_ff = na.prev_cell;
        launch_ck = ck_arrival_[static_cast<std::size_t>(na.prev_cell)];
        break;
      }
      cp.t_wires_ps += wire;
      net = in;
    }
    std::reverse(cp.cells.begin(), cp.cells.end());
    cp.t_skew_ps = launch_ck - ck_arrival_[static_cast<std::size_t>(capture)];
    return cp;
  }

  void compute_slacks() {
    slack_.assign(nl_.num_nets(), std::numeric_limits<double>::infinity());
    if (!worst_.valid) return;
    std::vector<double> down(nl_.num_nets(), kNegInf);
    // Endpoint requirements.
    for (std::size_t c = 0; c < nl_.num_cells(); ++c) {
      const CellId cid = static_cast<CellId>(c);
      const CellInst& inst = nl_.cell(cid);
      if (!inst.spec->sequential || inst.spec->d_pin < 0) continue;
      const NetId d_net = inst.conn[static_cast<std::size_t>(inst.spec->d_pin)];
      if (d_net == kNoNet) continue;
      const double wire = px_.elmore_ps(cid, inst.spec->d_pin);
      down[static_cast<std::size_t>(d_net)] =
          std::max(down[static_cast<std::size_t>(d_net)],
                   wire + inst.spec->setup_ps - ck_arrival_[c]);
    }
    for (auto it = topo_.order.rbegin(); it != topo_.order.rend(); ++it) {
      const CellId cid = *it;
      const CellInst& inst = nl_.cell(cid);
      const NetId out = inst.output_net();
      if (out == kNoNet || down[static_cast<std::size_t>(out)] <= kNegInf) continue;
      const double out_load = load_of(out);
      for (const TimingArc& arc : inst.spec->arcs) {
        if (inst.spec->pins[static_cast<std::size_t>(arc.from_pin)].is_clock) continue;
        const NetId in = inst.conn[static_cast<std::size_t>(arc.from_pin)];
        if (in == kNoNet) continue;
        const auto& ia = net_[static_cast<std::size_t>(in)];
        if (ia.arrival_ps <= kNegInf) continue;
        const double wire = px_.elmore_ps(cid, arc.from_pin);
        const double pin_slew = ia.slew_ps + wire;
        const double d = arc.delay.lookup(pin_slew, out_load).value_ps;
        down[static_cast<std::size_t>(in)] =
            std::max(down[static_cast<std::size_t>(in)],
                     wire + d + down[static_cast<std::size_t>(out)]);
      }
    }
    for (std::size_t n = 0; n < nl_.num_nets(); ++n) {
      if (down[n] <= kNegInf || net_[n].arrival_ps <= kNegInf) continue;
      const double p_through = net_[n].arrival_ps + down[n];
      slack_[n] = worst_.t_cp_ps - p_through;
    }
  }

  const Netlist& nl_;
  const ExtractionResult& px_;
  const TopoOrder& topo_;
  std::vector<NetArrival> net_;
  std::vector<double> ck_arrival_;
  std::vector<double> ck_slew_;
  std::vector<int> ck_domain_;
  std::unordered_map<NetId, int> clock_root_of_;
  std::vector<char> slow_cell_;
  CriticalPath worst_;
  std::vector<CriticalPath> per_domain_;
  std::vector<double> slack_;
};

}  // namespace

namespace {

StaResult run_sta_with(const Netlist& nl, const TopoOrder& topo,
                       const ExtractionResult& parasitics) {
  TPI_SPAN("sta.run");
  StaEngine engine(nl, parasitics, topo);
  StaResult res = engine.run();
  MetricsRegistry& m = metrics();
  m.add("sta.runs");
  m.add("sta.domains", res.per_domain.size());
  m.add("sta.slow_nodes", static_cast<std::uint64_t>(res.slow_nodes));
  return res;
}

}  // namespace

StaResult run_sta(const Netlist& nl, const ExtractionResult& parasitics) {
  // One levelize shared by the forward and backward passes.
  const TopoOrder topo = levelize(nl, SeqView::kApplication);
  return run_sta_with(nl, topo, parasitics);
}

StaResult run_sta(DesignDB& db, const ExtractionResult& parasitics) {
  return run_sta_with(db.netlist(), db.topo(SeqView::kApplication), parasitics);
}

}  // namespace tpi
