#include "circuits/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace tpi {
namespace {

struct Sig {
  NetId net = kNoNet;
  int level = 0;
};

class Generator {
 public:
  Generator(const CellLibrary& lib, const CircuitProfile& p)
      : lib_(lib), p_(p), rng_(p.seed), nl_(std::make_unique<Netlist>(&lib, p.name)) {}

  std::unique_ptr<Netlist> run() {
    make_ios_and_ffs();
    // Grow the cloud in three phases so hard-block outputs get consumed by
    // later gates: 40% plain logic, then the decode blocks, then the rest.
    const int budget = gate_budget();  // cloud gates (hard blocks budgeted separately)
    grow_gates(static_cast<int>(budget * 0.4));
    const int before_hard = gates_made_;
    make_hard_blocks();
    const int hard_gates = gates_made_ - before_hard;
    grow_gates(budget - (gates_made_ - hard_gates));
    while (ffs_released_ < static_cast<int>(ffs_.size())) release_next_ff();
    connect_ff_inputs();
    connect_pos();
    absorb_unused();
    return std::move(nl_);
  }

 private:
  int gate_budget() const {
    // Reserve room for decode blocks (~1.5 cells per input incl. inverters)
    // and the XOR observation trees (~9% of gates end up unconsumed).
    const int hard = p_.num_hard_blocks *
                     (p_.hard_block_width * 3 / 2 + 6 +
                      p_.hard_classes_per_block * (p_.hard_mode_bits + 3));
    const int obs = static_cast<int>(p_.num_comb_gates * 0.09);
    return std::max(16, p_.num_comb_gates - hard - obs);
  }

  void make_ios_and_ffs() {
    for (int d = 0; d < p_.num_clock_domains; ++d) {
      const int pi = nl_->add_primary_input("clk" + std::to_string(d));
      nl_->mark_clock(pi);
      clock_nets_.push_back(nl_->pi_net(pi));
    }
    for (int i = 0; i < p_.num_pis; ++i) {
      const int pi = nl_->add_primary_input("pi" + std::to_string(i));
      pool_.push_back(Sig{nl_->pi_net(pi), 0});
    }
    const CellSpec* dff = lib_.by_name("DFF_X1");
    assert(dff != nullptr);
    // Domain assignment by cumulative fraction.
    std::vector<double> cum(p_.domain_fraction.size());
    double acc = 0;
    for (std::size_t d = 0; d < cum.size(); ++d) {
      acc += p_.domain_fraction[d];
      cum[d] = acc;
    }
    // Flip-flops are created up front but released into the signal pool
    // interleaved with logic growth (see maybe_release_ff), so registers
    // end up embedded in local logic clusters rather than clumped — as in
    // a real synthesised design.
    for (int i = 0; i < p_.num_ffs; ++i) {
      const CellId ff = nl_->add_cell(dff, "ff" + std::to_string(i));
      const NetId q = nl_->add_net("ff" + std::to_string(i) + "_q");
      nl_->connect(ff, dff->output_pin, q);
      const double frac = (p_.num_ffs > 1)
                              ? static_cast<double>(i) / static_cast<double>(p_.num_ffs - 1)
                              : 0.0;
      int dom = 0;
      while (dom + 1 < static_cast<int>(cum.size()) &&
             frac > cum[static_cast<std::size_t>(dom)]) {
        ++dom;
      }
      nl_->connect(ff, dff->clock_pin, clock_nets_[static_cast<std::size_t>(dom)]);
      ffs_.push_back(ff);
    }
    ff_release_stride_ = std::max(1, gate_budget() / std::max(1, p_.num_ffs));
    ff_pool_index_.assign(ffs_.size(), 0);
    // Seed the pool with the first slice of flip-flops so early gates have
    // registered sources.
    for (int i = 0; i < std::min(p_.num_ffs, std::max(16, p_.num_ffs / 16)); ++i) {
      release_next_ff();
    }
    // Designate hub signals among the FF outputs (mode/enable registers).
    for (int i = 0; i < p_.num_hub_signals && i < static_cast<int>(pool_.size()); ++i) {
      const std::size_t idx = static_cast<std::size_t>(
          rng_.next_below(pool_.size()));
      hubs_.push_back(pool_[idx]);
    }
  }

  // Weighted gate-function mix (shares sum to 1 before xor_bias shifts).
  const CellSpec* pick_gate_spec() {
    struct Mix {
      CellFunc func;
      int inputs;
      double weight;
    };
    const double x = p_.xor_bias;
    static thread_local std::vector<Mix> mix;
    mix = {
        {CellFunc::kNand, 2, 0.26},          {CellFunc::kNor, 2, 0.13},
        {CellFunc::kInv, 1, 0.14},           {CellFunc::kAnd, 2, 0.06},
        {CellFunc::kOr, 2, 0.06},            {CellFunc::kNand, 3, 0.05},
        {CellFunc::kNor, 3, 0.04},           {CellFunc::kXor, 2, 0.04 + x},
        {CellFunc::kXnor, 2, 0.03 + x / 2},  {CellFunc::kMux2, 2, 0.05},
        {CellFunc::kBuf, 1, 0.03},           {CellFunc::kAnd, 3, 0.03},
        {CellFunc::kOr, 3, 0.03},            {CellFunc::kNand, 4, 0.025},
        {CellFunc::kNor, 4, 0.02},
    };
    double total = 0;
    for (const auto& m : mix) total += m.weight;
    double r = rng_.next_double() * total;
    for (const auto& m : mix) {
      r -= m.weight;
      if (r <= 0) return lib_.gate(m.func, m.inputs);
    }
    return lib_.gate(CellFunc::kNand, 2);
  }

  Sig pick_input(int max_level) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      Sig s;
      const double roll = rng_.next_double();
      if (!hubs_.empty() && roll < p_.hub_pick_prob) {
        s = hubs_[static_cast<std::size_t>(rng_.next_below(hubs_.size()))];
      } else if (roll < p_.hub_pick_prob + 0.78 && pool_.size() > 64) {
        // Strong locality: most wiring connects to very recent signals
        // (Rent-style clustering).
        const std::size_t window = std::min<std::size_t>(128, pool_.size());
        const std::size_t idx =
            pool_.size() - 1 - static_cast<std::size_t>(rng_.next_below(window));
        s = pool_[idx];
      } else if (roll < p_.hub_pick_prob + 0.94 && pool_.size() > 512) {
        // Medium range.
        const std::size_t window = std::min<std::size_t>(1024, pool_.size());
        const std::size_t idx =
            pool_.size() - 1 - static_cast<std::size_t>(rng_.next_below(window));
        s = pool_[idx];
      } else {
        s = pool_[static_cast<std::size_t>(rng_.next_below(pool_.size()))];
      }
      if (s.level < max_level) return s;
    }
    // Fall back to a shallow signal (PIs/FF outputs are level 0).
    return pool_[static_cast<std::size_t>(
        rng_.next_below(std::min<std::size_t>(pool_.size(), static_cast<std::size_t>(
                                                                p_.num_pis + p_.num_ffs))))];
  }

  NetId emit_gate(const CellSpec* spec, const std::vector<Sig>& ins, Sig* out_sig) {
    const CellId c = nl_->add_cell(spec, std::string("g").append(std::to_string(gates_made_)));
    static const char* kNames[] = {"A", "B", "C", "D"};
    int level = 0;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const char* pin = (spec->func == CellFunc::kMux2 && i == 2) ? "S" : kNames[i];
      nl_->connect(c, spec->find_pin(pin), ins[i].net);
      level = std::max(level, ins[i].level);
    }
    const NetId out = nl_->add_net(std::string("n").append(std::to_string(gates_made_)));
    nl_->connect(c, spec->output_pin, out);
    ++gates_made_;
    if (out_sig != nullptr) *out_sig = Sig{out, level + 1};
    return out;
  }

  void release_next_ff() {
    if (ffs_released_ >= static_cast<int>(ffs_.size())) return;
    const CellId ff = ffs_[static_cast<std::size_t>(ffs_released_)];
    ff_pool_index_[static_cast<std::size_t>(ffs_released_)] = pool_.size();
    pool_.push_back(Sig{nl_->cell(ff).output_net(), 0});
    ++ffs_released_;
  }

  // Root net of a one-level buffer/inverter chain and its parity.
  std::pair<NetId, bool> invert_root(NetId net) const {
    bool inverted = false;
    for (int hops = 0; hops < 4; ++hops) {
      const Net& n = nl_->net(net);
      if (!n.driver.valid()) break;
      const CellInst& d = nl_->cell(n.driver.cell);
      if (d.spec->func == CellFunc::kInv) {
        inverted = !inverted;
      } else if (d.spec->func != CellFunc::kBuf) {
        break;
      }
      const NetId in = d.conn[0];
      if (in == kNoNet) break;
      net = in;
    }
    return {net, inverted};
  }

  bool conflicts(const std::vector<Sig>& ins, const Sig& cand) const {
    const auto [croot, cinv] = invert_root(cand.net);
    for (const Sig& prev : ins) {
      if (prev.net == cand.net) return true;
      const auto [proot, pinv] = invert_root(prev.net);
      if (proot == croot) return true;  // same source, either polarity
    }
    return false;
  }

  void grow_gates(int count) {
    for (int g = 0; g < count; ++g) {
      if (gates_made_ % ff_release_stride_ == 0) release_next_ff();
      const CellSpec* spec = pick_gate_spec();
      const int arity = spec->num_inputs + (spec->func == CellFunc::kMux2 ? 1 : 0);
      std::vector<Sig> ins;
      ins.reserve(static_cast<std::size_t>(arity));
      for (int i = 0; i < arity; ++i) {
        Sig s = pick_input(p_.target_depth);
        // Avoid duplicate inputs and one-level complements (x together
        // with INV(x) makes a monotone gate constant — a synthesis tool
        // would have optimised such logic away).
        for (int tries = 0; tries < 6 && conflicts(ins, s); ++tries) {
          s = pick_input(p_.target_depth);
        }
        ins.push_back(s);
      }
      Sig out;
      emit_gate(spec, ins, &out);
      pool_.push_back(out);
    }
  }

  // Build a balanced AND tree over the given literals; returns the root.
  Sig and_tree(std::vector<Sig> level) {
    const CellSpec* and2 = lib_.gate(CellFunc::kAnd, 2);
    while (level.size() > 1) {
      std::vector<Sig> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        Sig out;
        emit_gate(and2, {level[i], level[i + 1]}, &out);
        next.push_back(out);
      }
      if (level.size() % 2) next.push_back(level.back());
      level = std::move(next);
    }
    return level.front();
  }

  // Each hard block: a rare master enable d (W-wide decode over independent
  // signals) gating C classes. Class c is an AND tree over d plus a
  // distinct mode code (polarity pattern over the block's mode signals), so
  // any two classes conflict in at least one mode bit — a compact ATPG
  // cannot merge their tests into one pattern. A control test point on d
  // makes every class random-testable at probability ~2^-mode_bits.
  void make_hard_blocks() {
    if (p_.num_hard_blocks <= 0) return;
    // Independent source pool for decode/mode literals: register outputs
    // and primary inputs. Deep internal signals would be mutually
    // correlated, which turns "hard to detect" into "undetectable".
    // Only level-0 sources (PIs / register outputs): mutually independent
    // by construction, so every decode is satisfiable — hard, never dead.
    std::vector<Sig> shared;
    const int pool_size = std::max(p_.hard_block_width * 3, 8);
    for (int guard = 0; static_cast<int>(shared.size()) < pool_size && guard < 4096;
         ++guard) {
      const Sig s = pick_input(1);
      if (s.level != 0) continue;
      bool dup = false;
      for (const Sig& prev : shared) dup = dup || prev.net == s.net;
      if (!dup) shared.push_back(s);
    }
    const CellSpec* and2 = lib_.gate(CellFunc::kAnd, 2);
    const CellSpec* inv = lib_.gate(CellFunc::kInv, 1);
    const CellSpec* xor2 = lib_.gate(CellFunc::kXor, 2);
    const int mode_bits = std::max(2, p_.hard_mode_bits);
    for (int b = 0; b < p_.num_hard_blocks; ++b) {
      // --- master enable: W-wide decode over distinct shared signals ---
      std::vector<std::size_t> picks(shared.size());
      for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
      rng_.shuffle(picks);
      std::vector<Sig> literals;
      for (std::size_t pi = 0;
           pi < picks.size() && static_cast<int>(literals.size()) < p_.hard_block_width;
           ++pi) {
        Sig s = shared[picks[pi]];
        if (rng_.next_bool(0.5)) {
          Sig inverted;
          emit_gate(inv, {s}, &inverted);
          s = inverted;
        }
        literals.push_back(s);
      }
      const Sig enable = and_tree(literals);
      pool_.push_back(enable);  // enable is also consumed by the datapath

      // --- block-local mode signals: independent level-0 sources that are
      // not already decode literals of this block ---
      std::vector<Sig> mode_pos, mode_neg;
      for (int guard = 0; static_cast<int>(mode_pos.size()) < mode_bits && guard < 4096;
           ++guard) {
        const Sig s = pick_input(1);
        if (s.level != 0) continue;
        bool dup = false;
        for (const Sig& lit : literals) dup = dup || invert_root(lit.net).first == s.net;
        for (const Sig& prev : mode_pos) dup = dup || prev.net == s.net;
        if (dup) continue;
        Sig n;
        emit_gate(inv, {s}, &n);
        mode_pos.push_back(s);
        mode_neg.push_back(n);
      }
      if (static_cast<int>(mode_pos.size()) < mode_bits) continue;  // degenerate circuit

      // --- classes: distinct mode codes, all gated by the enable ---
      std::vector<unsigned> codes;
      const unsigned code_space = 1u << mode_bits;
      for (int c = 0; c < p_.hard_classes_per_block && codes.size() < code_space; ++c) {
        unsigned code = static_cast<unsigned>(rng_.next_below(code_space));
        bool dup = true;
        for (int tries = 0; tries < 32 && dup; ++tries) {
          dup = false;
          for (const unsigned prev : codes) dup = dup || prev == code;
          if (dup) code = static_cast<unsigned>(rng_.next_below(code_space));
        }
        if (dup) continue;
        codes.push_back(code);
        std::vector<Sig> klits;
        klits.push_back(enable);
        for (int mbit = 0; mbit < mode_bits; ++mbit) {
          klits.push_back((code >> mbit) & 1u ? mode_pos[static_cast<std::size_t>(mbit)]
                                              : mode_neg[static_cast<std::size_t>(mbit)]);
        }
        const Sig trunk = and_tree(klits);
        // Leaf payload: a datapath signal observable only under this class.
        Sig leaf;
        emit_gate(and2, {trunk, pick_input(p_.target_depth)}, &leaf);
        // Merge into the datapath via XOR so observation is unconditional.
        Sig merged;
        emit_gate(xor2, {leaf, pick_input(p_.target_depth)}, &merged);
        pool_.push_back(merged);
      }
    }
  }

  void connect_ff_inputs() {
    // Each FF's D comes from logic created near the FF's own neighbourhood
    // (local feedback loop), preferring deeper signals within that window.
    for (std::size_t f = 0; f < ffs_.size(); ++f) {
      const std::size_t anchor =
          f < static_cast<std::size_t>(ffs_released_) ? ff_pool_index_[f] : pool_.size() - 1;
      const std::size_t win_lo = anchor;
      const std::size_t win_hi = std::min(pool_.size(), anchor + 512);
      Sig best{kNoNet, -1};
      for (int tries = 0; tries < 10; ++tries) {
        const std::size_t idx =
            win_lo + static_cast<std::size_t>(rng_.next_below(win_hi - win_lo));
        const Sig& s = pool_[idx];
        if (s.level > best.level) best = s;
        if (best.level >= p_.target_depth / 3) break;
      }
      if (best.net == kNoNet) best = pick_input(p_.target_depth + 1);
      const CellSpec* spec = nl_->cell(ffs_[f]).spec;
      nl_->connect(ffs_[f], spec->d_pin, best.net);
    }
  }

  void connect_pos() {
    for (int i = 0; i < p_.num_pos; ++i) {
      Sig s = pick_input(p_.target_depth + 1);
      for (int tries = 0; tries < 6 && s.level < p_.target_depth / 4; ++tries) {
        s = pick_input(p_.target_depth + 1);
      }
      nl_->add_primary_output("po" + std::to_string(i), s.net);
    }
  }

  // Fold every signal nobody reads into XOR observation trees feeding
  // extra primary outputs (keeps the fault universe observable).
  void absorb_unused() {
    std::vector<NetId> unused;
    for (std::size_t n = 0; n < nl_->num_nets(); ++n) {
      const Net& net = nl_->net(static_cast<NetId>(n));
      if (net.fanout() == 0 && (net.driver.valid() || net.driven_by_pi()) &&
          !nl_->is_clock_net(static_cast<NetId>(n))) {
        unused.push_back(static_cast<NetId>(n));
      }
    }
    const CellSpec* xor2 = lib_.gate(CellFunc::kXor, 2);
    int po_idx = 0;
    for (std::size_t start = 0; start < unused.size(); start += 32) {
      const std::size_t end = std::min(unused.size(), start + 32);
      std::vector<NetId> level(unused.begin() + static_cast<std::ptrdiff_t>(start),
                               unused.begin() + static_cast<std::ptrdiff_t>(end));
      while (level.size() > 1) {
        std::vector<NetId> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          const CellId c = nl_->add_cell(xor2, "obs" + std::to_string(gates_made_));
          nl_->connect(c, xor2->find_pin("A"), level[i]);
          nl_->connect(c, xor2->find_pin("B"), level[i + 1]);
          const NetId out = nl_->add_net("obs_n" + std::to_string(gates_made_));
          nl_->connect(c, xor2->output_pin, out);
          ++gates_made_;
          next.push_back(out);
        }
        if (level.size() % 2) next.push_back(level.back());
        level = std::move(next);
      }
      nl_->add_primary_output("obs_po" + std::to_string(po_idx++), level.front());
    }
  }

  const CellLibrary& lib_;
  const CircuitProfile& p_;
  Rng rng_;
  std::unique_ptr<Netlist> nl_;
  std::vector<NetId> clock_nets_;
  std::vector<CellId> ffs_;
  std::vector<Sig> pool_;
  std::vector<Sig> hubs_;
  int gates_made_ = 0;
  int ffs_released_ = 0;
  int ff_release_stride_ = 1;
  std::vector<std::size_t> ff_pool_index_;
};

}  // namespace

std::unique_ptr<Netlist> generate_circuit(const CellLibrary& lib, const CircuitProfile& profile) {
  Generator gen(lib, profile);
  return gen.run();
}

}  // namespace tpi
