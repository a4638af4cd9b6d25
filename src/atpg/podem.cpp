#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>

namespace tpi {
namespace {

Tern tern_of(bool b) { return b ? Tern::k1 : Tern::k0; }

}  // namespace

Podem::Podem(const CombModel& model, const TestabilityResult& scoap, PodemOptions opts)
    : model_(model), scoap_(scoap), opts_(opts) {
  const std::size_t n = model.num_nets();
  v_.assign(n, kCodeXX);
  is_input_.assign(n, 0);
  input_index_.assign(n, 0);
  observed_.assign(n, 0);
  pending_.assign((model.nodes().size() + 63) / 64, 0);
  // Sized once: growing these mid-run fragments the heap (peak RSS).
  candidates_.reserve(model.nodes().size());
  decisions_.reserve(model.input_nets().size());
  const auto& inputs = model.input_nets();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    is_input_[static_cast<std::size_t>(inputs[i])] = 1;
    input_index_[static_cast<std::size_t>(inputs[i])] = i;
  }
  for (const NetId net : model.observe_nets()) observed_[static_cast<std::size_t>(net)] = 1;
}

void Podem::reset_state() {
  for (auto it = trail_.rbegin(); it != trail_.rend(); ++it) {
    v_[static_cast<std::size_t>(it->net)] = it->old;
  }
  trail_.clear();
  d_frontier_.clear();
  detected_ = false;
  implications_ = 0;
  // Constants are permanent; (re)assert them outside the trail.
  for (const NetId net : model_.const0_nets()) {
    v_[static_cast<std::size_t>(net)] = tern_code(Tern::k0, Tern::k0);
  }
  for (const NetId net : model_.const1_nets()) {
    v_[static_cast<std::size_t>(net)] = tern_code(Tern::k1, Tern::k1);
  }
}

void Podem::set_net(NetId net, TernCode code) {
  const auto i = static_cast<std::size_t>(net);
  if (v_[i] == code) return;
  trail_.push_back(TrailEntry{net, v_[i]});
  v_[i] = code;
  if (observed_[i] && code_is_d(code)) detected_ = true;
}

void Podem::eval_node(int node_index) {
  const CombNode& node = model_.nodes()[static_cast<std::size_t>(node_index)];
  if (node.out == kNoNet) return;
  const auto out = static_cast<std::size_t>(node.out);
  // Implication only refines X values and evaluation is monotone, so an
  // output known in both circuits would evaluate to itself.
  if (code_known(v_[out])) return;
  TernCode in[4];
  for (int i = 0; i < node.num_inputs; ++i) in[i] = v_[static_cast<std::size_t>(node.in[i])];
  TernCode sel = node.sel != kNoNet ? v_[static_cast<std::size_t>(node.sel)] : kCodeXX;
  const Tern stuck = tern_of(fault_->stuck1);
  if (node_index == branch_reader_) {
    for (int i = 0; i < node.num_inputs; ++i) {
      if (node.in[i] == fault_->net) in[i] = code_with_faulty(in[i], stuck);
    }
    if (node.sel == fault_->net) sel = code_with_faulty(sel, stuck);
  }
  TernCode c = eval_node_code(node.func, node.num_inputs, in, sel);
  // Stem fault: the faulty circuit's value at the site is pinned.
  if (fault_->is_stem() && node.out == fault_->net) c = code_with_faulty(c, stuck);

  if (c == v_[out]) return;
  set_net(node.out, c);
  // D-frontier bookkeeping: the node's readers may now have a D input.
  if (code_is_d(c)) {
    for (const int reader : model_.readers_of(node.out)) d_frontier_.push_back(reader);
  }
  schedule_readers(node.out);
}

void Podem::schedule_readers(NetId net) {
  for (const int reader : model_.readers_of(net)) {
    const auto r = static_cast<std::size_t>(reader);
    pending_[r / 64] |= std::uint64_t{1} << (r % 64);
    pending_lo_ = std::min(pending_lo_, r / 64);
    pending_hi_ = std::max(pending_hi_, r / 64 + 1);
  }
}

int Podem::pop_pending() {
  for (; pending_lo_ < pending_hi_; ++pending_lo_) {
    std::uint64_t& word = pending_[pending_lo_];
    if (word == 0) continue;
    const int bit = std::countr_zero(word);
    word &= word - 1;
    return static_cast<int>(pending_lo_ * 64) + bit;
  }
  clear_pending();
  return -1;
}

void Podem::clear_pending() {
  for (std::size_t w = pending_lo_; w < pending_hi_; ++w) pending_[w] = 0;
  pending_lo_ = ~std::size_t{0};
  pending_hi_ = 0;
}

bool Podem::assign_and_imply(NetId net, Tern value) {
  const Tern stuck = tern_of(fault_->stuck1);
  const Tern f = (fault_->is_stem() && net == fault_->net) ? stuck : value;
  set_net(net, tern_code(value, f));
  if (fault_->is_stem() && net == fault_->net && value != Tern::kX && value != stuck) {
    if (observed_[static_cast<std::size_t>(net)]) detected_ = true;
    // The activated site carries a D: its readers join the D-frontier.
    for (const int reader : model_.readers_of(net)) d_frontier_.push_back(reader);
  }
  schedule_readers(net);
  for (int ni = pop_pending(); ni >= 0; ni = pop_pending()) {
    if (++implications_ > opts_.implication_limit) {
      clear_pending();  // the next assignment must start from an empty queue
      return false;
    }
    eval_node(ni);
  }
  return true;
}

void Podem::rebuild_d_frontier() {
  d_frontier_.clear();
  // The branch reader carries the injected D on its faulty input; it never
  // appears as a D on a real net, so it is always a frontier candidate.
  if (branch_reader_ >= 0) d_frontier_.push_back(branch_reader_);
  for (const TrailEntry& e : trail_) {
    if (code_is_d(v_[static_cast<std::size_t>(e.net)])) {
      for (const int reader : model_.readers_of(e.net)) d_frontier_.push_back(reader);
    }
  }
}

int Podem::pick_d_frontier() {
  // Lazily filter stale candidates; pick the gate whose output is closest
  // to an observation point (minimum SCOAP CO).
  int best = -1;
  float best_co = kScoapInf + 1.0f;
  std::size_t w = 0;
  for (std::size_t i = 0; i < d_frontier_.size(); ++i) {
    const int ni = d_frontier_[i];
    const CombNode& node = model_.nodes()[static_cast<std::size_t>(ni)];
    if (node.out == kNoNet) continue;
    const auto out = static_cast<std::size_t>(node.out);
    // Resolved only when BOTH circuits know the output; a known good value
    // with an unknown faulty value can still become a D.
    if (code_known(v_[out])) continue;
    if (ni == branch_reader_) {
      // Keep the injection node alive even before the fault is activated:
      // its D is virtual and appears once the site gets its value.
      d_frontier_[w++] = ni;
      continue;
    }
    bool has_d = false;
    for (int k = 0; k < node.num_inputs + (node.sel != kNoNet ? 1 : 0); ++k) {
      const NetId in_net = k < node.num_inputs ? node.in[k] : node.sel;
      if (code_is_d(v_[static_cast<std::size_t>(in_net)])) {
        has_d = true;
        break;
      }
    }
    if (!has_d) continue;
    d_frontier_[w++] = ni;
    const float co = scoap_.co[out];
    if (co < best_co) {
      best_co = co;
      best = ni;
    }
  }
  d_frontier_.resize(w);
  return best;
}

// Enumerate the propagation objectives a D-frontier node offers; calls
// try(net, value) for each until it returns true.
template <typename Fn>
bool Podem::for_each_propagation_objective(int ni, Fn&& try_objective) {
  const CombNode& node = model_.nodes()[static_cast<std::size_t>(ni)];
  if (node.func == CellFunc::kMux2) {
    const bool inject = ni == branch_reader_;
    auto has_d = [&](NetId in_net) {
      const TernCode c = v_[static_cast<std::size_t>(in_net)];
      return code_is_d(inject && in_net == fault_->net
                           ? code_with_faulty(c, tern_of(fault_->stuck1))
                           : c);
    };
    if (has_d(node.sel)) {
      // D on select: make the data inputs differ.
      for (int k = 0; k < 2; ++k) {
        if (good(node.in[k]) != Tern::kX) continue;
        const Tern other = good(node.in[1 - k]);
        const Tern v = other == Tern::k1 ? Tern::k0 : Tern::k1;
        if (try_objective(node.in[k], v)) return true;
        if (other == Tern::kX && try_objective(node.in[k], tern_not(v))) return true;
      }
      return false;
    }
    if (good(node.sel) == Tern::kX) {
      // Steer the select toward the data input carrying the D.
      const Tern v = has_d(node.in[1]) ? Tern::k1 : Tern::k0;
      return try_objective(node.sel, v);
    }
    return false;
  }
  Tern nc;
  switch (node.func) {
    case CellFunc::kAnd:
    case CellFunc::kNand:
      nc = Tern::k1;
      break;
    case CellFunc::kOr:
    case CellFunc::kNor:
      nc = Tern::k0;
      break;
    default:
      nc = Tern::k0;  // XOR/XNOR/BUF/INV: any defined value propagates
      break;
  }
  for (int k = 0; k < node.num_inputs; ++k) {
    if (good(node.in[k]) != Tern::kX) continue;
    if (try_objective(node.in[k], nc)) return true;
  }
  return false;
}

// Find the next input decision: activate the fault, else propagate through
// some D-frontier gate. Tries every frontier candidate and every side
// input before giving up; `truncated` records whether any shortcut pruned
// a branch that might still hold a test (in that case an exhausted search
// must report kAborted, not kRedundant).
bool Podem::find_decision(NetId* in_net, Tern* in_val) {
  const Tern want = tern_of(!fault_->stuck1);
  if (good(fault_->net) == Tern::kX) {
    if (backtrace(fault_->net, want, in_net, in_val)) return true;
    // Backtrace picked one uncontrollable chain; alternatives may exist.
    truncated_ = true;
    return false;
  }
  if (good(fault_->net) != want) return false;  // activation conflict: genuine dead end
  // Refresh the frontier list order (best first) and walk every candidate.
  pick_d_frontier();
  candidates_.assign(d_frontier_.begin(), d_frontier_.end());
  std::stable_sort(candidates_.begin(), candidates_.end(), [&](int a, int b) {
    const NetId oa = model_.nodes()[static_cast<std::size_t>(a)].out;
    const NetId ob = model_.nodes()[static_cast<std::size_t>(b)].out;
    return scoap_.co[static_cast<std::size_t>(oa)] < scoap_.co[static_cast<std::size_t>(ob)];
  });
  for (const int ni : candidates_) {
    bool found = false;
    const bool had_objectives = for_each_propagation_objective(ni, [&](NetId net, Tern v) {
      if (backtrace(net, v, in_net, in_val)) {
        found = true;
        return true;
      }
      truncated_ = true;  // objective existed but no controllable path
      return false;
    });
    (void)had_objectives;
    if (found) return true;
  }
  return false;
}

bool Podem::backtrace(NetId obj_net, Tern obj_val, NetId* input_net, Tern* input_val) {
  NetId net = obj_net;
  Tern val = obj_val;
  for (int depth = 0; depth < 100000; ++depth) {
    const auto n = static_cast<std::size_t>(net);
    if (is_input_[n]) {
      *input_net = net;
      *input_val = val;
      return true;
    }
    const int prod = model_.producer_of(net);
    if (prod < 0) return false;  // tie cell or unreachable: cannot control
    const CombNode& node = model_.nodes()[static_cast<std::size_t>(prod)];
    auto cc = [&](NetId in, Tern v) {
      const auto i = static_cast<std::size_t>(in);
      return v == Tern::k1 ? scoap_.cc1[i] : scoap_.cc0[i];
    };
    // Select the next (input, value) pair per gate type: hardest-first when
    // every input must be set, easiest-first when any single input suffices.
    auto choose = [&](Tern need, bool all_required) -> bool {
      NetId pick = kNoNet;
      float pick_cost = all_required ? -1.0f : kScoapInf + 1.0f;
      for (int k = 0; k < node.num_inputs; ++k) {
        if (good(node.in[k]) != Tern::kX) continue;
        const float cost = cc(node.in[k], need);
        // When any single input suffices, never walk into a structurally
        // uncontrollable chain (tie-driven) — another input can serve.
        if (!all_required && cost >= kScoapInf) continue;
        const bool better = all_required ? cost > pick_cost : cost < pick_cost;
        if (better) {
          pick_cost = cost;
          pick = node.in[k];
        }
      }
      if (pick == kNoNet) return false;
      net = pick;
      val = need;
      return true;
    };
    switch (node.func) {
      case CellFunc::kBuf:
      case CellFunc::kClkBuf:
      case CellFunc::kTsff:
        net = node.in[0];
        break;
      case CellFunc::kInv:
        net = node.in[0];
        val = tern_not(val);
        break;
      case CellFunc::kAnd:
      case CellFunc::kNand: {
        Tern v = val;
        if (node.func == CellFunc::kNand) v = tern_not(v);
        // v==1: all inputs 1 (hardest first); v==0: one input 0 (easiest).
        if (!choose(v == Tern::k1 ? Tern::k1 : Tern::k0, v == Tern::k1)) return false;
        break;
      }
      case CellFunc::kOr:
      case CellFunc::kNor: {
        Tern v = val;
        if (node.func == CellFunc::kNor) v = tern_not(v);
        // v==0: all inputs 0 (hardest first); v==1: one input 1 (easiest).
        if (!choose(v == Tern::k0 ? Tern::k0 : Tern::k1, v == Tern::k0)) return false;
        break;
      }
      case CellFunc::kXor:
      case CellFunc::kXnor: {
        // Set any X input; pick its cheaper polarity (parity fixed later by
        // the other inputs / subsequent objectives).
        NetId pick = kNoNet;
        for (int k = 0; k < node.num_inputs; ++k) {
          if (good(node.in[k]) == Tern::kX) {
            pick = node.in[k];
            break;
          }
        }
        if (pick == kNoNet) return false;
        net = pick;
        val = cc(pick, Tern::k0) <= cc(pick, Tern::k1) ? Tern::k0 : Tern::k1;
        break;
      }
      case CellFunc::kMux2: {
        const Tern sel = good(node.sel);
        if (sel == Tern::kX) {
          // Steer through the cheaper data path.
          const float via_a = cc(node.in[0], val) + cc(node.sel, Tern::k0);
          const float via_b = cc(node.in[1], val) + cc(node.sel, Tern::k1);
          net = node.sel;
          val = via_a <= via_b ? Tern::k0 : Tern::k1;
        } else {
          const int k = sel == Tern::k1 ? 1 : 0;
          if (good(node.in[k]) != Tern::kX) return false;
          net = node.in[k];
        }
        break;
      }
      default:
        return false;
    }
    if (good(net) != Tern::kX) return false;
  }
  return false;
}

PodemResult Podem::generate(const Fault& fault) {
  PodemResult res;
  fault_ = &fault;
  branch_reader_ = -1;
  direct_branch_capture_ = false;
  if (!fault.is_stem()) {
    for (const int reader : model_.readers_of(fault.net)) {
      if (model_.nodes()[static_cast<std::size_t>(reader)].cell == fault.branch.cell) {
        branch_reader_ = reader;
        break;
      }
    }
    if (branch_reader_ < 0) {
      // Branch fault straight into a flip-flop D pin: the faulty value is
      // captured directly, so activating the site detects it.
      const CellSpec* spec = model_.netlist().cell(fault.branch.cell).spec;
      direct_branch_capture_ = spec->sequential && fault.branch.pin == spec->d_pin;
      if (!direct_branch_capture_) {
        res.outcome = PodemOutcome::kRedundant;  // unobservable branch
        return res;
      }
    }
  }
  reset_state();
  truncated_ = false;
  if (branch_reader_ >= 0) d_frontier_.push_back(branch_reader_);

  decisions_.clear();
  int backtracks = 0;
  while (true) {
    if (direct_branch_capture_ && good(fault.net) == tern_of(!fault.stuck1)) {
      detected_ = true;
    }
    if (detected_) {
      res.outcome = PodemOutcome::kTest;
      res.cube.assign(model_.input_nets().size(), Tern::kX);
      const auto& inputs = model_.input_nets();
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        res.cube[i] = good(inputs[i]);
      }
      res.backtracks = backtracks;
      return res;
    }
    NetId in_net = kNoNet;
    Tern in_val = Tern::kX;
    if (find_decision(&in_net, &in_val)) {
      Decision d;
      d.input_index = input_index_[static_cast<std::size_t>(in_net)];
      d.value = in_val;
      d.trail_mark = trail_.size();
      decisions_.push_back(d);
      if (!assign_and_imply(in_net, in_val)) {
        res.outcome = PodemOutcome::kAborted;  // implication budget blown
        res.backtracks = backtracks;
        return res;
      }
      continue;
    }
    // Dead end: flip the most recent unflipped decision.
    bool flipped = false;
    while (!decisions_.empty()) {
      Decision& d = decisions_.back();
      // Undo its implications (reverse order restores every intermediate
      // composite value exactly).
      while (trail_.size() > d.trail_mark) {
        const TrailEntry e = trail_.back();
        trail_.pop_back();
        v_[static_cast<std::size_t>(e.net)] = e.old;
      }
      detected_ = false;
      if (!d.flipped) {
        d.flipped = true;
        d.value = tern_not(d.value);
        if (++backtracks > opts_.backtrack_limit) {
          res.outcome = PodemOutcome::kAborted;
          res.backtracks = backtracks;
          return res;
        }
        rebuild_d_frontier();
        const NetId net = model_.input_nets()[d.input_index];
        if (!assign_and_imply(net, d.value)) {
          res.outcome = PodemOutcome::kAborted;
          res.backtracks = backtracks;
          return res;
        }
        flipped = true;
        break;
      }
      decisions_.pop_back();
    }
    if (!flipped && decisions_.empty()) {
      // Only a complete search proves redundancy; if any branch was pruned
      // by a heuristic shortcut the honest verdict is "aborted".
      res.outcome = truncated_ ? PodemOutcome::kAborted : PodemOutcome::kRedundant;
      res.backtracks = backtracks;
      return res;
    }
  }
}

}  // namespace tpi
