#include "verify/equiv.hpp"

#include <bit>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/kernels.hpp"
#include "sim/seq_sim.hpp"
#include "sim/ternary_planes.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

/// Single-lane replay of a trace; returns the first frame where any real PO
/// of the model fires (for a miter: miter_out), or -1.
int fail_frame_of(const CombModel& model, const CexTrace& cex) {
  SequentialSim sim(model);
  if (!cex.initial_state.empty()) {
    std::vector<Word> st(model.boundary_ffs().size(), 0);
    for (std::size_t i = 0; i < st.size() && i < cex.initial_state.size(); ++i) {
      st[i] = cex.initial_state[i] ? ~Word{0} : Word{0};
    }
    sim.set_state(st);
  }
  std::vector<Word> pi(model.num_pi_inputs(), 0);
  std::vector<Word> po;
  for (std::size_t f = 0; f < cex.pi_frames.size(); ++f) {
    const auto& bits = cex.pi_frames[f];
    for (std::size_t i = 0; i < pi.size(); ++i) {
      pi[i] = (i < bits.size() && bits[i] != 0) ? ~Word{0} : Word{0};
    }
    sim.step(pi, po);
    Word out = 0;
    for (const Word w : po) out |= w;
    if (out != 0) return static_cast<int>(f);
  }
  return -1;
}

}  // namespace

EquivChecker::EquivChecker(const Netlist& miter, const EquivOptions& opts)
    : nl_(&miter), opts_(opts), model_(miter, SeqView::kApplication) {
  // Pair boundary FFs across the two miter sides by base name: "a.f3" and
  // "b.f3" are the same mission-mode register and must agree on the random
  // initial value in the unroll engine, or a state the design could never
  // hold would raise false alarms.
  const auto& ffs = model_.boundary_ffs();
  state_pair_.assign(ffs.size(), -1);
  const auto is_prefixed = [](const std::string& name) {
    return name.size() >= 2 && name[1] == '.' && (name[0] == 'a' || name[0] == 'b');
  };
  // Pass 1 keys on the cell name; pass 2 retries the leftovers with the Q
  // net name, which survives transforms that rename cells (e.g. a .bench
  // round trip, whose reader regenerates cell names but keeps net names).
  for (const bool use_net_name : {false, true}) {
    std::unordered_map<std::string, int> by_base;
    by_base.reserve(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      if (state_pair_[i] >= 0) continue;
      const CellInst& ff = miter.cell(ffs[i]);
      if (use_net_name && ff.output_net() == kNoNet) continue;
      const std::string& name =
          use_net_name ? miter.net(ff.output_net()).name : ff.name;
      if (!is_prefixed(name)) continue;
      const auto [it, inserted] = by_base.emplace(name.substr(2), static_cast<int>(i));
      if (!inserted && state_pair_[static_cast<std::size_t>(it->second)] < 0) {
        state_pair_[i] = it->second;
        state_pair_[static_cast<std::size_t>(it->second)] = static_cast<int>(i);
      }
    }
  }
}

EquivResult EquivChecker::check() {
  EquivResult res;
  CexTrace cex;
  bool found = false;
  for (int r = 0; !found && r < opts_.random_rounds;) {
    const int nb = super_batch_words(opts_.random_rounds - r);
    found = sim_group(0x1000u, r, nb, opts_.frames_per_round, /*random_init=*/false, "random",
                      &cex, &res.frames_simulated);
    r += nb;
  }
  for (int r = 0; !found && r < opts_.unroll_rounds;) {
    const int nb = super_batch_words(opts_.unroll_rounds - r);
    found = sim_group(0x2000u, r, nb, opts_.unroll_frames, /*random_init=*/true, "unroll",
                      &cex, &res.frames_simulated);
    r += nb;
  }
  if (!found && opts_.ternary_frames > 0) {
    bool proven = false;
    found = ternary_round(mix_seed(opts_.seed, 0x3000u), opts_.ternary_frames, &proven, &cex,
                          &res.frames_simulated);
    res.proven_x_init = proven;
  }
  if (found) {
    res.equivalent = false;
    res.proven_x_init = false;
    res.cex = opts_.shrink ? shrink_trace(cex) : cex;
  }
  return res;
}

bool EquivChecker::replay(const CexTrace& cex) const { return fail_frame_of(model_, cex) >= 0; }

bool EquivChecker::sim_group(std::uint64_t base_salt, int first_round, int num_rounds,
                             int frames, bool random_init, const char* source, CexTrace* cex,
                             std::int64_t* frames_simulated) const {
  // One lane word per round: round (first_round + j) owns lane word j and
  // keeps its own Rng stream, seeded exactly as the one-round-at-a-time
  // engine seeded it — lockstepping the group changes the wall clock,
  // never the draws, the winning round, or the counterexample.
  const std::size_t nw = static_cast<std::size_t>(num_rounds);
  std::vector<Rng> rngs;
  rngs.reserve(nw);
  for (std::size_t j = 0; j < nw; ++j) {
    rngs.emplace_back(
        mix_seed(opts_.seed, base_salt + static_cast<unsigned>(first_round) + j));
  }
  SequentialSim sim(model_, num_rounds);
  const std::size_t nff = model_.boundary_ffs().size();
  std::vector<Word> init_words;
  if (random_init) {
    init_words.resize(nff * nw);
    for (std::size_t i = 0; i < nff; ++i) {
      const int pair = state_pair_[i];
      for (std::size_t j = 0; j < nw; ++j) {
        init_words[i * nw + j] = (pair >= 0 && pair < static_cast<int>(i))
                                     ? init_words[static_cast<std::size_t>(pair) * nw + j]
                                     : rngs[j].next_u64();
      }
    }
    sim.set_state(init_words);
  }
  std::vector<std::vector<Word>> pi_history;
  std::vector<Word> pi_words(model_.num_pi_inputs() * nw);
  std::vector<Word> po_words;
  std::vector<int> first_fail(nw, -1);
  std::vector<Word> fail_word(nw, 0);
  bool all_failed = false;
  for (int f = 0; f < frames && !all_failed; ++f) {
    for (std::size_t i = 0; i < model_.num_pi_inputs(); ++i) {
      for (std::size_t j = 0; j < nw; ++j) pi_words[i * nw + j] = rngs[j].next_u64();
    }
    pi_history.push_back(pi_words);
    sim.step(pi_words, po_words);
    all_failed = true;
    for (std::size_t j = 0; j < nw; ++j) {
      if (first_fail[j] >= 0) continue;
      Word fail = 0;
      for (std::size_t i = 0; i < model_.num_po_observes(); ++i) fail |= po_words[i * nw + j];
      if (fail != 0) {
        first_fail[j] = f;
        fail_word[j] = fail;
      } else {
        all_failed = false;
      }
    }
  }
  // The winner is the lowest round index with a failure — exactly the round
  // the sequential engine stops at. A lower-index round failing at a later
  // frame still wins over a higher-index early failure, which is why the
  // frame loop cannot stop at the first failure it sees.
  int winner = -1;
  for (std::size_t j = 0; j < nw; ++j) {
    if (first_fail[j] >= 0) {
      winner = static_cast<int>(j);
      break;
    }
  }
  if (winner < 0) {
    *frames_simulated += static_cast<std::int64_t>(num_rounds) * frames;
    return false;
  }
  // Rounds before the winner ran their full budget, the winner stopped at
  // its first failing frame, later rounds never ran — the same accounting
  // the sequential engine reported.
  *frames_simulated += static_cast<std::int64_t>(winner) * frames + first_fail[winner] + 1;
  const std::size_t w = static_cast<std::size_t>(winner);
  const int lane = std::countr_zero(fail_word[w]);
  cex->source = source;
  cex->fail_frame = first_fail[w];
  cex->pi_frames.clear();
  for (int f = 0; f <= first_fail[w]; ++f) {
    const auto& frame = pi_history[static_cast<std::size_t>(f)];
    std::vector<std::uint8_t> bits(model_.num_pi_inputs());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = static_cast<std::uint8_t>((frame[i * nw + w] >> lane) & 1u);
    }
    cex->pi_frames.push_back(std::move(bits));
  }
  cex->initial_state.clear();
  if (random_init) {
    cex->initial_state.resize(nff);
    for (std::size_t i = 0; i < nff; ++i) {
      cex->initial_state[i] = static_cast<std::uint8_t>((init_words[i * nw + w] >> lane) & 1u);
    }
  }
  return true;
}

bool EquivChecker::ternary_round(std::uint64_t round_seed, int frames, bool* proven,
                                 CexTrace* cex, std::int64_t* frames_simulated) const {
  // Full-width two-plane pass: kMaxLaneWords x 64 independent random input
  // trajectories, every one from the all-X initial state. A definite 1 in
  // any lane is a counterexample valid from reset; a proof means the miter
  // output was a definite 0 in every lane of every frame.
  using Enc = EncVC;
  constexpr std::size_t nw = static_cast<std::size_t>(kMaxLaneWords);
  Rng rng(round_seed);
  const std::size_t nets = static_cast<std::size_t>(model_.num_nets());
  std::vector<Word> plane_p(nets * nw, 0);
  std::vector<Word> plane_q(nets * nw, 0);  // (0,0) == X
  const std::size_t nff = model_.boundary_ffs().size();
  std::vector<Word> state_p(nff * nw, 0);
  std::vector<Word> state_q(nff * nw, 0);
  for (const NetId n : model_.const0_nets()) {
    for (std::size_t j = 0; j < nw; ++j) {
      Enc::zero(plane_p[static_cast<std::size_t>(n) * nw + j],
                plane_q[static_cast<std::size_t>(n) * nw + j]);
    }
  }
  for (const NetId n : model_.const1_nets()) {
    for (std::size_t j = 0; j < nw; ++j) {
      Enc::one(plane_p[static_cast<std::size_t>(n) * nw + j],
               plane_q[static_cast<std::size_t>(n) * nw + j]);
    }
  }
  const auto& inputs = model_.input_nets();
  const auto& observes = model_.observe_nets();
  const SimKernels& kernels = sim_kernels();
  std::vector<std::vector<Word>> pi_history;
  std::vector<Word> pi_bits(model_.num_pi_inputs() * nw);
  bool all_zero = true;
  for (int f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < model_.num_pi_inputs(); ++i) {
      const std::size_t base = static_cast<std::size_t>(inputs[i]) * nw;
      for (std::size_t j = 0; j < nw; ++j) {
        const Word bits = rng.next_u64();
        pi_bits[i * nw + j] = bits;
        Enc::from_bits(bits, plane_p[base + j], plane_q[base + j]);
      }
    }
    pi_history.push_back(pi_bits);
    for (std::size_t i = 0; i < nff; ++i) {
      const std::size_t base =
          static_cast<std::size_t>(inputs[model_.num_pi_inputs() + i]) * nw;
      for (std::size_t j = 0; j < nw; ++j) {
        plane_p[base + j] = state_p[i * nw + j];
        plane_q[base + j] = state_q[i * nw + j];
      }
    }
    kernels.tern_sweep(model_, plane_p.data(), plane_q.data());
    ++*frames_simulated;
    int fail_j = -1;
    Word fail = 0;
    for (std::size_t j = 0; j < nw && fail_j < 0; ++j) {
      Word ones = 0;
      Word known0 = ~Word{0};
      for (std::size_t i = 0; i < model_.num_po_observes(); ++i) {
        const std::size_t base = static_cast<std::size_t>(observes[i]) * nw;
        ones |= Enc::ones(plane_p[base + j], plane_q[base + j]);
        known0 &= Enc::zeros(plane_p[base + j], plane_q[base + j]);
      }
      if (known0 != ~Word{0}) all_zero = false;
      if (ones != 0) {
        fail_j = static_cast<int>(j);
        fail = ones;
      }
    }
    if (fail_j >= 0) {
      // A definite 1 under an all-X state fires under EVERY initial state,
      // so the trace is valid from reset too — initial_state stays empty.
      const std::size_t w = static_cast<std::size_t>(fail_j);
      const int lane = std::countr_zero(fail);
      cex->source = "ternary";
      cex->fail_frame = f;
      cex->pi_frames.clear();
      for (const auto& frame : pi_history) {
        std::vector<std::uint8_t> bits(model_.num_pi_inputs());
        for (std::size_t i = 0; i < bits.size(); ++i) {
          bits[i] = static_cast<std::uint8_t>((frame[i * nw + w] >> lane) & 1u);
        }
        cex->pi_frames.push_back(std::move(bits));
      }
      cex->initial_state.clear();
      return true;
    }
    for (std::size_t i = 0; i < nff; ++i) {
      const std::size_t base =
          static_cast<std::size_t>(observes[model_.num_po_observes() + i]) * nw;
      for (std::size_t j = 0; j < nw; ++j) {
        state_p[i * nw + j] = plane_p[base + j];
        state_q[i * nw + j] = plane_q[base + j];
      }
    }
  }
  *proven = all_zero;
  return false;
}

CexTrace EquivChecker::shrink_trace(const CexTrace& cex) const {
  CexTrace best = cex;
  int ff = fail_frame_of(model_, best);
  if (ff < 0) return best;  // not reproducible single-lane; return untouched
  best.pi_frames.resize(static_cast<std::size_t>(ff) + 1);
  best.fail_frame = ff;

  // Greedy frame dropping (ddmin-lite, granularity 1): keep removing any
  // single frame whose absence preserves the mismatch.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < best.pi_frames.size(); ++i) {
      CexTrace t = best;
      t.pi_frames.erase(t.pi_frames.begin() + static_cast<std::ptrdiff_t>(i));
      const int f = fail_frame_of(model_, t);
      if (f < 0) continue;
      t.pi_frames.resize(static_cast<std::size_t>(f) + 1);
      t.fail_frame = f;
      best = std::move(t);
      changed = true;
      break;
    }
  }

  // Clear set initial-state bits, then set PI bits, to 0.
  auto try_clear = [&](std::uint8_t& bit) {
    if (bit == 0) return;
    CexTrace t = best;
    bit = 0;  // best is mutated through the reference; undo on failure
    const int f = fail_frame_of(model_, best);
    if (f < 0) {
      best = std::move(t);
      return;
    }
    best.pi_frames.resize(static_cast<std::size_t>(f) + 1);
    best.fail_frame = f;
  };
  for (std::size_t i = 0; i < best.initial_state.size(); ++i) try_clear(best.initial_state[i]);
  bool any_state = false;
  for (const std::uint8_t b : best.initial_state) any_state |= (b != 0);
  if (!any_state) best.initial_state.clear();  // all-zero == reset
  // A successful clear can make the failure fire earlier and shrink the
  // frame list under us — re-check f against the current size every step.
  for (std::size_t f = 0; f < best.pi_frames.size(); ++f) {
    for (std::size_t i = 0; f < best.pi_frames.size() && i < best.pi_frames[f].size(); ++i) {
      try_clear(best.pi_frames[f][i]);
    }
  }
  return best;
}

}  // namespace tpi
