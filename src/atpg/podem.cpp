#include "atpg/podem.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

namespace tpi {
namespace {

Tern tern_of(bool b) { return b ? Tern::k1 : Tern::k0; }

using CodeTable = std::array<std::array<TernCode, 9>, 9>;

/// ImplyNode::fold values: an index into kFolds, or kGeneric.
constexpr std::uint8_t kFoldAnd = 0, kFoldOr = 1, kFoldXor = 2, kGeneric = 3;
constexpr const CodeTable* kFolds[] = {&kTernCodeTables.and_, &kTernCodeTables.or_,
                                       &kTernCodeTables.xor_};

/// Row 0 maps every code to itself, row 1 is NOT.
constexpr std::array<std::array<TernCode, 9>, 2> kPost = [] {
  std::array<std::array<TernCode, 9>, 2> t{};
  for (std::size_t c = 0; c < 9; ++c) {
    t[0][c] = static_cast<TernCode>(c);
    t[1][c] = kTernCodeTables.not_[c];
  }
  return t;
}();

// Padding a fold with (1,1) for AND and (0,0) for OR/XOR leaves every code
// unchanged, so a padded four-input fold equals eval_node_code's.
constexpr bool pads_are_identities() {
  const TernCode zero = tern_code(Tern::k0, Tern::k0), one = tern_code(Tern::k1, Tern::k1);
  for (TernCode c = 0; c < 9; ++c) {
    if (kTernCodeTables.and_[c][one] != c || kTernCodeTables.or_[c][zero] != c ||
        kTernCodeTables.xor_[c][zero] != c) {
      return false;
    }
  }
  return true;
}
static_assert(pads_are_identities());

struct Fold {
  std::uint8_t fold, invert;
};

constexpr Fold fold_of(CellFunc func) {
  switch (func) {
    case CellFunc::kBuf:
    case CellFunc::kAnd:
      return {kFoldAnd, 0};
    case CellFunc::kInv:
    case CellFunc::kNand:
      return {kFoldAnd, 1};
    case CellFunc::kOr:
      return {kFoldOr, 0};
    case CellFunc::kNor:
      return {kFoldOr, 1};
    case CellFunc::kXor:
      return {kFoldXor, 0};
    case CellFunc::kXnor:
      return {kFoldXor, 1};
    default:
      return {kGeneric, 0};  // MUX2: eval_node_code from the CombNode
  }
}

}  // namespace

Podem::Podem(const CombModel& model, const TestabilityResult& scoap, PodemOptions opts)
    : model_(model), scoap_(scoap), opts_(opts) {
  const std::size_t n = model.num_nets();
  const std::size_t num_nodes = model.nodes().size();
  v_.assign(n, kCodeXX);
  const auto zero = static_cast<NetId>(n), one = static_cast<NetId>(n + 1);
  v_.push_back(tern_code(Tern::k0, Tern::k0));
  v_.push_back(tern_code(Tern::k1, Tern::k1));
  imply_nodes_.resize(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const CombNode& node = model.nodes()[i];
    const Fold f = fold_of(node.func);
    ImplyNode& op = imply_nodes_[i];
    for (int k = 0; k < 4; ++k) {
      op.in[k] = k < node.num_inputs ? node.in[k] : f.fold == kFoldAnd ? one : zero;
    }
    op.out = node.out != kNoNet ? node.out : zero;
    op.fold = f.fold;
    op.invert = f.invert;
  }
  is_input_.assign(n, 0);
  input_index_.assign(n, 0);
  observed_.assign(n, 0);
  first_pos_.assign(n, 0);
  pending_.assign((num_nodes + 63) / 64, 0);
  skipped_.assign(pending_.size(), 0);
  trail_.resize(256);  // assign_and_imply doubles it when full
  // Sized once: growing these mid-run fragments the heap (peak RSS).
  candidates_.reserve(num_nodes);
  decisions_.reserve(model.input_nets().size());
  const auto& inputs = model.input_nets();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    is_input_[static_cast<std::size_t>(inputs[i])] = 1;
    input_index_[static_cast<std::size_t>(inputs[i])] = i;
  }
  for (const NetId net : model.observe_nets()) observed_[static_cast<std::size_t>(net)] = 1;
}

void Podem::reset_state() {
  undo_to(0);
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

void Podem::undo_to(std::size_t trail_mark) {
  // Reverse order restores every intermediate composite value exactly. The
  // entry that gave a net its D is that net's last, and D nets were pushed
  // in trail order, so each one popped here is the stack's top.
  while (trail_len_ > trail_mark) {
    const TrailEntry e = trail_[--trail_len_];
    TernCode& code = v_[static_cast<std::size_t>(e.net)];
    if (code_is_d(code)) d_nets_.pop_back();
    code = e.old;
  }
}

// Set `net` to `value` and imply forward until nothing changes. Nodes are
// evaluated in ascending index order, readers after their producers
// (levelize leaves cycles out of the model), so each node is evaluated at
// most once per call. A reader whose output is already known in both
// circuits would evaluate to itself (implication only refines X values and
// evaluation is monotone), so it is never queued; it is counted once per
// call all the same, and implications_ stays the number of nodes the call
// touched. Returns false once implications_ passes the per-fault limit.
bool Podem::assign_and_imply(NetId net, Tern value) {
  // The hot state lives in locals: TernCode stores are uint8_t, which may
  // alias any member, so member reads after a store would be reloaded.
  TernCode* const v = v_.data();
  const ImplyNode* const imply = imply_nodes_.data();
  const CombNode* const nodes = model_.nodes().data();
  std::uint64_t* const pending = pending_.data();
  std::uint64_t* const skipped = skipped_.data();
  const char* const observed = observed_.data();
  std::uint32_t* const first_pos = first_pos_.data();
  TrailEntry* trail = trail_.data();
  std::size_t trail_len = trail_len_;
  std::size_t trail_cap = trail_.size();
  bool detected = detected_;
  const int inject = inject_node_;
  const NetId site = fault_->net;
  const Tern stuck = tern_of(fault_->stuck1);

  const auto set = [&](NetId n, TernCode code) {
    const auto i = static_cast<std::size_t>(n);
    const TernCode old = v[i];
    if (trail_len == trail_cap) {
      trail_.resize(2 * trail_cap);
      trail = trail_.data();
      trail_cap = trail_.size();
    }
    if (old == kCodeXX) first_pos[i] = static_cast<std::uint32_t>(trail_len);
    trail[trail_len++] = TrailEntry{n, old};
    v[i] = code;
    if (code_is_d(code)) {
      detected = detected || observed[i] != 0;
      d_nets_.push_back(n);
      // D-frontier bookkeeping: the net's readers may now propagate it.
      for (const int reader : model_.readers_of(n)) d_frontier_.push_back(reader);
    }
  };
  // Queue the readers of `n` whose output is still unknown, mark the rest.
  // readers_of is ascending, so the last reader bounds the scan.
  std::size_t hi = 0;
  const auto schedule = [&](NetId n) {
    const std::span<const int> readers = model_.readers_of(n);
    if (readers.empty()) return;
    for (const int reader : readers) {
      const auto r = static_cast<std::size_t>(reader);
      std::uint64_t* const bits = code_known(v[imply[r].out]) ? skipped : pending;
      bits[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    hi = std::max(hi, static_cast<std::size_t>(readers.back()) / 64 + 1);
  };

  const TernCode assigned =
      tern_code(value, fault_->is_stem() && net == site ? stuck : value);
  if (v[static_cast<std::size_t>(net)] != assigned) set(net, assigned);
  schedule(net);

  std::int64_t touched = 0;
  const std::span<const int> first = model_.readers_of(net);
  for (std::size_t w = first.empty() ? 0 : static_cast<std::size_t>(first.front()) / 64; w < hi;
       ++w) {
    for (std::uint64_t word = pending[w]; word != 0; word = pending[w]) {
      pending[w] = word & (word - 1);
      const int ni = static_cast<int>(w * 64) + std::countr_zero(word);
      ++touched;
      const ImplyNode& op = imply[static_cast<std::size_t>(ni)];
      TernCode c;
      if (op.fold != kGeneric && ni != inject) {
        const CodeTable& t = *kFolds[op.fold];
        c = kPost[op.invert][t[t[t[v[op.in[0]]][v[op.in[1]]]][v[op.in[2]]]][v[op.in[3]]]];
      } else {
        const CombNode& node = nodes[static_cast<std::size_t>(ni)];
        TernCode in[4];
        for (int i = 0; i < node.num_inputs; ++i) in[i] = v[static_cast<std::size_t>(node.in[i])];
        TernCode sel = node.sel != kNoNet ? v[static_cast<std::size_t>(node.sel)] : kCodeXX;
        if (ni == inject && branch_reader_ >= 0) {
          // The branch reader sees the stuck value on its faulty input pin.
          for (int i = 0; i < node.num_inputs; ++i) {
            if (node.in[i] == site) in[i] = code_with_faulty(in[i], stuck);
          }
          if (node.sel == site) sel = code_with_faulty(sel, stuck);
        }
        c = eval_node_code(node.func, node.num_inputs, in, sel);
        // Stem fault: the faulty circuit's value at the site is pinned.
        if (ni == inject && branch_reader_ < 0) c = code_with_faulty(c, stuck);
      }
      if (c == v[static_cast<std::size_t>(op.out)]) continue;
      set(op.out, c);
      schedule(op.out);
    }
    // Later nodes only mark later words: this word's marks are final.
    touched += std::popcount(skipped[w]);
    skipped[w] = 0;
  }

  trail_len_ = trail_len;
  detected_ = detected;
  implications_ += touched;
  return implications_ <= opts_.implication_limit;
}

void Podem::rebuild_d_frontier() {
  d_frontier_.clear();
  // The branch reader carries the injected D on its faulty input; it never
  // appears as a D on a real net, so it is always a frontier candidate.
  if (branch_reader_ >= 0) d_frontier_.push_back(branch_reader_);
  // The readers of every D net, nets in the order they left (X,X). A scan
  // of the trail pushing the readers of each entry whose net now holds a D
  // meets each such net first at that point, so every node first appears
  // in the same order in both lists. The repeats the scan adds change
  // nothing, since trying a frontier node is a pure function of the state.
  // O(#D nets) instead of O(trail).
  d_order_.assign(d_nets_.begin(), d_nets_.end());
  std::sort(d_order_.begin(), d_order_.end(), [&](NetId a, NetId b) {
    return first_pos_[static_cast<std::size_t>(a)] < first_pos_[static_cast<std::size_t>(b)];
  });
  for (const NetId net : d_order_) {
    for (const int reader : model_.readers_of(net)) d_frontier_.push_back(reader);
  }
}

void Podem::filter_d_frontier() {
  // Lazily drop stale candidates, keeping the order.
  std::size_t w = 0;
  for (std::size_t i = 0; i < d_frontier_.size(); ++i) {
    const int ni = d_frontier_[i];
    const CombNode& node = model_.nodes()[static_cast<std::size_t>(ni)];
    if (node.out == kNoNet) continue;
    // Resolved only when BOTH circuits know the output; a known good value
    // with an unknown faulty value can still become a D.
    if (code_known(v_[static_cast<std::size_t>(node.out)])) continue;
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
    if (has_d) d_frontier_[w++] = ni;
  }
  d_frontier_.resize(w);
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
  // Drop stale frontier entries, then walk every candidate best first.
  filter_d_frontier();
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
  inject_node_ = branch_reader_ >= 0 ? branch_reader_
                 : fault.is_stem()    ? model_.producer_of(fault.net)
                                      : -1;
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
      d.trail_mark = trail_len_;
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
      undo_to(d.trail_mark);  // its implications
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
