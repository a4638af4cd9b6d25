#include "tpi/tpi.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "netlist/design_db.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Net is a legal TSFF site: driven, not a clock, not scan infrastructure,
// and carrying functional logic (some logic sink or a PO).
bool legal_site(const Netlist& nl, NetId net_id) {
  const Net& net = nl.net(net_id);
  if (!net.driver.valid() && !net.driven_by_pi()) return false;
  if (nl.is_clock_net(net_id)) return false;
  if (net.driver.valid()) {
    const CellSpec* spec = nl.cell(net.driver.cell).spec;
    if (spec->func == CellFunc::kTsff) return false;  // already a test point
    if (spec->func == CellFunc::kTie0 || spec->func == CellFunc::kTie1) return false;
  }
  bool has_logic_load = !net.po_sinks.empty();
  for (const PinRef& s : net.sinks) {
    if (!nl.cell(s.cell).spec->is_scan_or_clock_pin(s.pin)) has_logic_load = true;
  }
  return has_logic_load;
}

/// §3.1 step 2 search budget: the BFS for the nearest flip-flop's clock
/// stops after visiting this many nets. In practice a sequential element
/// sits within a handful of hops of any legal TSFF site, so the cap only
/// triggers on pathological fan-out; the fallback is the first declared
/// clock domain.
constexpr int kNearestClockMaxVisits = 4000;

/// BFS scratch, hoisted by the caller across sites so the per-site search
/// reuses one allocation instead of a fresh queue + visited set each time.
struct NearestClockScratch {
  std::vector<NetId> frontier;      ///< head-indexed FIFO (like levelize)
  std::vector<std::uint32_t> seen;  ///< per-net visit stamp (== epoch: visited)
  std::uint32_t epoch = 0;
};

// §3.1 step 2: the clock for a new TSFF is the domain of the nearest
// flip-flop, found by BFS through the netlist from the insertion site.
NetId nearest_clock(const Netlist& nl, NetId site, NearestClockScratch& scratch) {
  std::vector<NetId>& frontier = scratch.frontier;
  scratch.seen.resize(nl.num_nets(), 0);  // each insertion adds nets
  const std::uint32_t epoch = ++scratch.epoch;
  auto first_visit = [&](NetId n) {
    return std::exchange(scratch.seen[static_cast<std::size_t>(n)], epoch) != epoch;
  };
  frontier.assign(1, site);
  scratch.seen[static_cast<std::size_t>(site)] = epoch;
  for (std::size_t head = 0;
       head < frontier.size() && head < static_cast<std::size_t>(kNearestClockMaxVisits);
       ++head) {
    const NetId net_id = frontier[head];
    const Net& net = nl.net(net_id);
    auto visit_cell = [&](CellId cid) -> NetId {
      const CellInst& inst = nl.cell(cid);
      if (inst.spec->sequential && inst.spec->clock_pin >= 0) {
        const NetId ck = inst.conn[static_cast<std::size_t>(inst.spec->clock_pin)];
        if (ck != kNoNet) return ck;
      }
      return kNoNet;
    };
    // Forward through sinks, backward through the driver.
    for (const PinRef& s : net.sinks) {
      const NetId ck = visit_cell(s.cell);
      if (ck != kNoNet) return ck;
      const NetId out = nl.cell(s.cell).output_net();
      if (out != kNoNet && first_visit(out)) frontier.push_back(out);
    }
    if (net.driver.valid()) {
      const NetId ck = visit_cell(net.driver.cell);
      if (ck != kNoNet) return ck;
      for (const NetId in : nl.cell(net.driver.cell).conn) {
        if (in != kNoNet && in != net_id && first_visit(in)) frontier.push_back(in);
      }
    }
  }
  // Fallback: the first declared clock domain.
  if (!nl.clock_pis().empty()) return nl.pi_net(nl.clock_pis().front());
  return kNoNet;
}

// Shared test-control primary inputs of every TSFF (created on first use).
constexpr const char* kTePiName = "tp_te";
constexpr const char* kTrPiName = "tp_tr";

NetId get_or_create_control_pi(Netlist& nl, const std::string& name) {
  const NetId existing = nl.find_net(name);
  if (existing != kNoNet) return existing;
  const int pi = nl.add_primary_input(name);
  return nl.pi_net(pi);
}

constexpr float kRandomTh = 1e-3f;  // random-detectable threshold

// Gain of a hypothetical test point on net X (Seiss-style gradient):
//  * control gain — re-evaluate COP signal probabilities in X's fanout
//    cone with p1(X) forced to 0.5 and count nets whose hardest stuck-at
//    fault crosses from random-resistant to random-detectable;
//  * observation gain — nets in X's fan-in whose faults are activatable
//    but unobservable today become observable at the TSFF's D input.
// Nothing is allocated per candidate: the cone is marked in a node bitmap
// (which also dedups the BFS) and read back in ascending node order,
// fan-in marks are epoch-stamped (one epoch per candidate), the BFS queues
// are reused, and the cone is evaluated in place in a working copy of the
// COP p1 vector that is put back after each candidate. The cone caps and
// the BFS/node order decide the ranking and are part of its determinism
// contract (DESIGN.md §5).
//
// Only relevant cone nodes are evaluated: a node is relevant when its
// output is fixable (hard today, and 0.5 · obs >= the threshold, so
// some p1 could make it random-detectable) or one of its readers is
// relevant. min(p, 1 − p) <= 0.5 for every float p, so a node that is
// not fixable never adds to the gain; and every producer of a relevant
// node is relevant, so each evaluated node reads the same p1 values as
// when the whole cone is evaluated. The mask is ANDed into the cone bitmap
// word by word; cone membership and the cap are untouched.
class GainEvaluator {
 public:
  GainEvaluator(const CombModel& model, const TestabilityResult& t)
      : model_(model), t_(t), p1_(t.p1), net_seen_(model.num_nets(), 0),
        cone_((model.nodes().size() + 63) / 64, 0), relevant_(cone_.size(), 0) {
    const auto& nodes = model.nodes();
    auto relevant = [&](int k) {
      const auto ki = static_cast<std::size_t>(k);
      return ((relevant_[ki / 64] >> (ki % 64)) & 1u) != 0;
    };
    for (std::size_t k = nodes.size(); k-- > 0;) {  // readers come later in node order
      const NetId out = nodes[k].out;
      if (out == kNoNet) continue;
      const auto readers = model.readers_of(out);
      if (fixable(static_cast<std::size_t>(out)) ||
          std::any_of(readers.begin(), readers.end(), relevant)) {
        relevant_[k / 64] |= std::uint64_t{1} << (k % 64);
      }
    }
  }

  double gain(NetId x) {
    constexpr std::size_t kMaxConeNodes = 500, kMaxFaninNets = 300;  // BFS caps
    ++epoch_;
    double g = 0.0;
    const auto xi = static_cast<std::size_t>(x);

    // ---- control gain over the fanout cone ----
    // Mark cone nodes (bounded BFS), then evaluate them in topo order.
    std::size_t cone_size = 0, lo = cone_.size(), hi = 0;
    frontier_.assign(1, x);
    for (std::size_t head = 0; head < frontier_.size() && cone_size < kMaxConeNodes; ++head) {
      for (const int reader : model_.readers_of(frontier_[head])) {
        const auto ri = static_cast<std::size_t>(reader);
        const std::uint64_t bit = std::uint64_t{1} << (ri % 64);
        if (cone_[ri / 64] & bit) continue;
        cone_[ri / 64] |= bit;
        ++cone_size;
        lo = std::min(lo, ri / 64);
        hi = std::max(hi, ri / 64 + 1);
        const NetId out = model_.nodes()[ri].out;
        if (out != kNoNet) frontier_.push_back(out);
      }
    }
    p1_[xi] = 0.5f;
    for (std::size_t w = lo; w < hi; ++w) {
      for (std::uint64_t word = std::exchange(cone_[w], 0) & relevant_[w]; word != 0;
           word &= word - 1) {
        const std::size_t ni = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        const CombNode& node = model_.nodes()[ni];
        if (node.out == kNoNet) continue;
        const auto out = static_cast<std::size_t>(node.out);
        const float p_new = cop_node_p1(node, p1_.data());
        p1_[out] = p_new;
        const float new_dp = std::min(p_new, 1.0f - p_new) * t_.obs[out];
        if (hard(out) && new_dp >= kRandomTh) g += 1.0;
      }
    }
    // Put p1_ back: frontier_ holds X and every cone node's output net.
    for (const NetId n : frontier_) {
      p1_[static_cast<std::size_t>(n)] = t_.p1[static_cast<std::size_t>(n)];
    }
    // X's own faults become fully testable (control + observe).
    if (hard(xi)) g += 1.0;

    // ---- observation gain over the fan-in cone ----
    back_.assign(1, x);
    net_seen_[xi] = epoch_;
    for (std::size_t head = 0; head < back_.size() && back_.size() < kMaxFaninNets; ++head) {
      const int prod = model_.producer_of(back_[head]);
      if (prod < 0) continue;
      const CombNode& node = model_.nodes()[static_cast<std::size_t>(prod)];
      for (int i = 0; i < node.num_inputs + (node.sel != kNoNet ? 1 : 0); ++i) {
        const NetId in = i < node.num_inputs ? node.in[i] : node.sel;
        if (in == kNoNet) continue;
        const auto ii = static_cast<std::size_t>(in);
        if (std::exchange(net_seen_[ii], epoch_) == epoch_) continue;
        if (unobserved(ii)) {
          g += 0.5;  // observation-only gain counts less than control
          back_.push_back(in);
        }
      }
    }
    return g;
  }

  /// One pass over the model that makes upper_bound() valid for every net.
  /// H[n] counts, over paths, the reader outputs below n that are fixable
  /// today — the only nodes that can add to n's control gain, whatever the
  /// cone cap. O[n] counts, over paths, the activatable-but-unobservable
  /// nets the fan-in walk can push. Both saturate at kBoundSat, far above
  /// any cone or fan-in walk.
  void compute_bounds() {
    const std::size_t n_nets = model_.num_nets();
    const auto& nodes = model_.nodes();
    auto below = [&](NetId n) {
      std::uint32_t h = 0;
      for (const int reader : model_.readers_of(n)) {
        const NetId out = nodes[static_cast<std::size_t>(reader)].out;
        if (out == kNoNet) continue;
        const auto o = static_cast<std::size_t>(out);
        h = sat_add(h, sat_add(fixable(o) ? 1 : 0, fixable_below_[o]));
      }
      return h;
    };
    fixable_below_.assign(n_nets, 0);
    for (std::size_t k = nodes.size(); k-- > 0;) {  // readers come later in node order
      const NetId out = nodes[k].out;
      if (out != kNoNet) fixable_below_[static_cast<std::size_t>(out)] = below(out);
    }
    for (std::size_t n = 0; n < n_nets; ++n) {  // PIs, pseudo-PIs, other producer-less nets
      const NetId net = static_cast<NetId>(n);
      if (model_.producer_of(net) < 0) fixable_below_[n] = below(net);
    }
    unobserved_above_.assign(n_nets, 0);
    for (const CombNode& node : nodes) {  // producers come earlier in node order
      if (node.out == kNoNet) continue;
      std::uint32_t o = 0;
      for (int i = 0; i < node.num_inputs + (node.sel != kNoNet ? 1 : 0); ++i) {
        const NetId in = i < node.num_inputs ? node.in[i] : node.sel;
        if (in == kNoNet || !unobserved(static_cast<std::size_t>(in))) continue;
        o = sat_add(o, sat_add(1, unobserved_above_[static_cast<std::size_t>(in)]));
      }
      unobserved_above_[static_cast<std::size_t>(node.out)] = o;
    }
  }

  /// gain(x) <= upper_bound(x): the cone holds at most H[x] fixable outputs,
  /// X's own term adds at most 1, and the fan-in walk at most O[x] halves.
  double upper_bound(NetId x) const {
    const auto xi = static_cast<std::size_t>(x);
    return fixable_below_[xi] + 1.0 + 0.5 * unobserved_above_[xi];
  }

 private:
  static constexpr std::uint32_t kBoundSat = 1u << 30;
  static std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) {
    return std::min(a + b, kBoundSat);
  }
  /// The net's hardest stuck-at fault is random-resistant today.
  bool hard(std::size_t n) const {
    return std::min(t_.p1[n], 1.0f - t_.p1[n]) * t_.obs[n] < kRandomTh;
  }
  /// The net is hard, and forcing some p1 on it could lift its detection
  /// probability to the threshold: min(p, 1 − p) never exceeds 0.5.
  bool fixable(std::size_t n) const { return hard(n) && 0.5f * t_.obs[n] >= kRandomTh; }
  /// The net's faults are activatable but not observable today.
  bool unobserved(std::size_t n) const {
    const float activ = std::min(t_.p1[n], 1.0f - t_.p1[n]);
    return t_.obs[n] * activ < kRandomTh && activ >= kRandomTh;
  }

  const CombModel& model_;
  const TestabilityResult& t_;
  std::vector<float> p1_;  ///< t_.p1, overridden inside the current cone only
  std::vector<std::uint32_t> net_seen_;  ///< fan-in visit stamp per net
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> cone_;  ///< fan-out cone bitmap over nodes, zero between calls
  std::vector<std::uint64_t> relevant_;  ///< relevant-node bitmap, fixed for the round
  std::vector<NetId> frontier_;
  std::vector<NetId> back_;
  std::vector<std::uint32_t> fixable_below_;     ///< H, per net
  std::vector<std::uint32_t> unobserved_above_;  ///< O, per net
};

}  // namespace

std::vector<NetId> rank_tpi_candidates(const Netlist& nl, const TestabilityResult& t,
                                       const CombModel& model, TpiMethod method,
                                       const std::unordered_set<NetId>& excluded,
                                       std::size_t max_candidates, RankStats* stats) {
  TPI_SPAN("tpi.rank");
  struct Scored {
    NetId net;
    double score;
  };
  std::vector<Scored> scored;
  auto candidate = [&](NetId net) { return !excluded.contains(net) && legal_site(nl, net); };
  RankStats local;
  RankStats& st = stats != nullptr ? *stats : local;
  st = RankStats{};
  if (max_candidates == 0) return {};

  if (method == TpiMethod::kHybrid) {
    // Shortlist the random-resistant nets (the first kMaxShortlist in
    // net-id order) and rank them by explicit testability gain (control +
    // observation). Hard nets with no measurable gain still rank by
    // hardness so the requested test-point budget is always spent (ties
    // broken toward the hardest lines).
    constexpr float kHardTh = 2e-3f;
    constexpr std::size_t kMaxShortlist = 12000;
    struct Hard {
      NetId net;
      double hardness;
    };
    std::vector<Hard> shortlist;
    for (std::size_t n = 0; n < nl.num_nets() && shortlist.size() < kMaxShortlist; ++n) {
      const NetId net = static_cast<NetId>(n);
      const float dp = t.detect_prob_min(net);
      if (dp < kHardTh && candidate(net)) {
        shortlist.push_back(Hard{net, -std::log2(static_cast<double>(dp) + 1e-12)});  // (0, 40]
      }
    }
    st.shortlisted = shortlist.size();
    GainEvaluator eval(model, t);
    auto score = [&](const Hard& h) {
      ++st.gain_evals;
      return -eval.gain(h.net) - h.hardness / 64.0;
    };
    if (shortlist.size() <= max_candidates) {
      for (const Hard& h : shortlist) scored.push_back(Scored{h.net, score(h)});
    } else {
      // Best first: visit candidates by ascending lower bound on their
      // score and stop once the next bound is worse than the current k-th
      // best score. A bound equal to it is still evaluated: its score may
      // tie the k-th and win on net id. Every net of the true top k is
      // evaluated, so ranking the evaluated subset (in net-id order, as the
      // stable sort below expects) gives the same top k as ranking all.
      eval.compute_bounds();
      std::vector<std::pair<double, std::size_t>> order(shortlist.size());  // (lb, index)
      for (std::size_t i = 0; i < shortlist.size(); ++i) {
        order[i] = {-eval.upper_bound(shortlist[i].net) - shortlist[i].hardness / 64.0, i};
      }
      std::sort(order.begin(), order.end());
      std::vector<std::pair<double, NetId>> top;  // max-heap of the best k (score, net)
      for (const auto& [lb, i] : order) {
        if (top.size() == max_candidates && lb > top.front().first) break;
        const std::pair<double, NetId> entry{score(shortlist[i]), shortlist[i].net};
        scored.push_back(Scored{entry.second, entry.first});
        if (top.size() < max_candidates) {
          top.push_back(entry);
          std::push_heap(top.begin(), top.end());
        } else if (entry < top.front()) {
          std::pop_heap(top.begin(), top.end());
          top.back() = entry;
          std::push_heap(top.begin(), top.end());
        }
      }
      std::sort(scored.begin(), scored.end(),
                [](const Scored& a, const Scored& b) { return a.net < b.net; });
    }
    if (scored.size() < max_candidates) {
      // Not enough random-resistant nets: top up with the hardest of the
      // remaining legal sites so the requested budget is honoured.
      for (std::size_t n = 0; n < nl.num_nets() && scored.size() < 4 * max_candidates;
           ++n) {
        const NetId net = static_cast<NetId>(n);
        if (!candidate(net) || t.detect_prob_min(net) < kHardTh) continue;  // shortlisted above
        scored.push_back(Scored{net, static_cast<double>(t.detect_prob_min(net))});
      }
    }
  } else {
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const NetId net = static_cast<NetId>(n);
      if (!candidate(net)) continue;
      double score = 0.0;
      if (method == TpiMethod::kCop) {
        score = t.detect_prob_min(net);
      } else {
        // SCOAP: hardest line = largest observability + controllability.
        const float hard = t.co[n] + std::min(t.cc0[n], t.cc1[n]) +
                           0.25f * std::max(t.cc0[n], t.cc1[n]);
        score = -static_cast<double>(std::min(hard, 4.0f * kScoapInf));
      }
      scored.push_back(Scored{net, score});
    }
  }

  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.score < b.score; });
  std::vector<NetId> out(std::min(max_candidates, scored.size()));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = scored[i].net;
  return out;
}

TpiReport insert_test_points(DesignDB& db, const TpiOptions& opts) {
  TpiReport report;
  if (opts.num_test_points <= 0) return report;
  Netlist& nl = db.netlist();
  const CellSpec* tsff = nl.library().by_name("TSFF_X1");
  assert(tsff != nullptr);

  const NetId te = get_or_create_control_pi(nl, kTePiName);
  const NetId tr = get_or_create_control_pi(nl, kTrPiName);

  // BFS scratch shared across every site of every round.
  NearestClockScratch scratch;

  const int rounds = std::max(1, opts.rounds);
  int remaining = opts.num_test_points;
  for (int round = 0; round < rounds && remaining > 0; ++round) {
    // Step 1 (§3.1): the testability analyses over the current netlist —
    // pulled from the design database, so a round that follows an
    // edit-free round reuses the previous views instead of rebuilding
    // (previously inserted TSFFs are scan-cell boundaries in this view).
    const CombModel* model = nullptr;
    const TestabilityResult* t = nullptr;
    {
      TPI_SPAN("tpi.views");
      model = &db.comb_model(SeqView::kCapture);
      t = &db.testability(SeqView::kCapture);
    }

    const int batch = std::min(remaining, (opts.num_test_points + rounds - 1) / rounds);
    const auto ranked = rank_tpi_candidates(nl, *t, *model, opts.method, opts.excluded_nets,
                                            static_cast<std::size_t>(batch));
    if (ranked.empty()) break;

    for (const NetId site : ranked) {
      // Step 3 (§3.1): insert the TSFF and reconnect the net's loads.
      const std::string name = "tp" + std::to_string(report.test_points.size());
      const CellId tp = nl.add_cell(tsff, name);
      nl.insert_cell_in_net(site, tp, tsff->d_pin);
      nl.connect(tp, tsff->te_pin, te);
      nl.connect(tp, tsff->tr_pin, tr);
      // Step 2 (§3.1): clock-domain assignment.
      const NetId ck = nearest_clock(nl, site, scratch);
      if (ck != kNoNet) nl.connect(tp, tsff->clock_pin, ck);
      report.test_points.push_back(tp);
      report.sites.push_back(site);
      --remaining;
      if (remaining == 0) break;
    }
    ++report.rounds_run;
  }
  log_info() << "TPI: inserted " << report.test_points.size() << " test points in "
             << report.rounds_run << " rounds";
  return report;
}

}  // namespace tpi
