#include "bist/lbist.hpp"

#include <stdexcept>
#include <string>

#include "atpg/fault_sim.hpp"
#include "util/metrics.hpp"

namespace tpi {

std::uint64_t Lfsr::primitive_polynomial(int degree) {
  // Taps from the standard tables (Xilinx XAPP052 / Golomb); expressed as
  // the feedback mask excluding the implicit x^degree term. No other
  // degree has an entry: a made-up mask could be non-primitive (a short
  // cycle) or zero (the register drains to the all-zero state).
  switch (degree) {
    case 8: return 0xB8;                  // x^8+x^6+x^5+x^4+1
    case 16: return 0xB400;               // x^16+x^14+x^13+x^11+1
    case 24: return 0xE10000;             // x^24+x^23+x^22+x^17+1
    case 32: return 0xA3000000u;          // x^32+x^30+x^26+x^25+1
    case 48: return 0xC00000180000ULL;    // x^48+x^47+x^21+x^20+1
    case 64: return 0xD800000000000000ULL;  // x^64+x^63+x^61+x^60+1
    default:
      throw std::invalid_argument("LFSR/MISR degree " + std::to_string(degree) +
                                  " has no primitive polynomial (use 8, 16, 24, 32, 48 or 64)");
  }
}

Lfsr::Lfsr(int degree, std::uint64_t seed)
    : degree_(degree), poly_(primitive_polynomial(degree)) {
  mask_ = degree == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << degree) - 1);
  state_ = (seed & mask_) != 0 ? (seed & mask_) : 1;  // never all-zero
}

std::uint64_t Lfsr::step() {
  const bool lsb = (state_ & 1u) != 0;
  state_ >>= 1;
  if (lsb) state_ ^= poly_ & mask_;
  return state_;
}

Word Lfsr::next_word() {
  // 64 steps of step() on a local copy, the feedback applied branch-free:
  // -(s & 1) is all ones exactly when the shifted-out bit was set.
  const std::uint64_t fb = poly_ & mask_;
  std::uint64_t s = state_;
  Word w = 0;
  for (int k = 0; k < kWordBits; ++k) {
    s = (s >> 1) ^ (-(s & 1) & fb);
    w |= (s & 1) << k;
  }
  state_ = s;
  return w;
}

Misr::Misr(int degree, std::uint64_t seed) : poly_(Lfsr::primitive_polynomial(degree)) {
  mask_ = degree == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << degree) - 1);
  state_ = seed & mask_;
}

void Misr::absorb(std::uint64_t value) {
  const bool lsb = (state_ & 1u) != 0;
  state_ >>= 1;
  if (lsb) state_ ^= poly_ & mask_;
  state_ = (state_ ^ value) & mask_;
}

LbistResult run_lbist(const CombModel& model, const LbistOptions& opts) {
  // report_every divides the pattern count; a negative budget is a typo.
  if (opts.report_every < 1) {
    throw std::invalid_argument("run_lbist: report_every must be >= 1, got " +
                                std::to_string(opts.report_every));
  }
  if (opts.max_patterns < 0) {
    throw std::invalid_argument("run_lbist: max_patterns must be >= 0, got " +
                                std::to_string(opts.max_patterns));
  }
  LbistResult res;
  const bool transition = opts.fault_model == FaultModel::kTransition;
  FaultList faults = build_fault_list(model, opts.fault_model);
  res.total_faults = faults.total_uncollapsed;
  res.capture_period_ps = opts.capture_period_ps;

  // At-speed qualification: a gross-delay defect of size delta at a site
  // with data arrival time a is caught at capture period T only when
  // a + delta > T — otherwise the path's slack swallows the extra delay.
  // With the default delta = T (a gross defect) every site with positive
  // arrival qualifies at speed, while a slow clock (T = k * t_cp) leaves
  // almost nothing observable: the at-speed vs slow-speed coverage gap.
  const bool qualify =
      transition && opts.capture_period_ps > 0.0 && opts.arrival_ps != nullptr;
  auto qualifies = [&](const Fault& f) {
    if (!qualify) return true;
    const double arrival = (*opts.arrival_ps)[static_cast<std::size_t>(f.net)];
    const double delta =
        opts.fault_size_ps > 0.0 ? opts.fault_size_ps : opts.capture_period_ps;
    return arrival + delta > opts.capture_period_ps;
  };

  FaultSimBank bank(model, 1);
  Lfsr lfsr(opts.lfsr_degree);  // every session starts from the default seed
  Misr misr(64);

  std::vector<Fault*> live;
  live.reserve(faults.faults.size());
  for (Fault& f : faults.faults) {
    if (f.status == FaultStatus::kUndetected && qualifies(f)) live.push_back(&f);
  }
  if (qualify) {
    for (const Fault* f : live) res.qualified += f->equiv_count;
  } else {
    res.qualified = res.total_faults;
  }

  // Covered equivalent faults (detected or scan-tested) behind the
  // coverage curve: the count at the start plus every fault dropped since.
  std::int64_t covered = faults.count_equiv(FaultStatus::kDetected) +
                         faults.count_equiv(FaultStatus::kScanTested);

  // One batch = 64 pseudo-random scan loads, phase-shifted per input by
  // drawing a fresh word from the PRPG stream; the budget runs to the next
  // whole batch. Transition sessions run each load as a launch-on-capture
  // pair. A super-batch packs up to kMaxLaneWords batches into one pass
  // (one net visit grades them all); the session then replays the batches
  // in order from each fault's first detecting pattern: batch j's MISR
  // words, its coverage step, and the stop after the first batch that
  // leaves no live fault. Batches past that stop were simulated but never
  // applied, and faults they alone detect stay live.
  const std::size_t num_inputs = model.input_nets().size();
  const std::size_t num_observes = model.observe_nets().size();
  const std::int64_t budget_batches =
      (static_cast<std::int64_t>(opts.max_patterns) + kWordBits - 1) / kWordBits;
  std::vector<Word> words;
  std::vector<Word> responses;
  std::vector<int> first;
  int applied = 0;
  std::int64_t batches = 0;
  while (batches < budget_batches) {
    // With no live fault left the next batch is the last: one word does.
    const int nw = live.empty() ? 1 : super_batch_words(budget_batches - batches);
    const std::size_t nwz = static_cast<std::size_t>(nw);
    // Batch-major, input-minor draws: the PRPG stream of 64-wide batches.
    words.resize(num_inputs * nwz);
    for (std::size_t j = 0; j < nwz; ++j) {
      for (std::size_t i = 0; i < num_inputs; ++i) words[i * nwz + j] = lfsr.next_word();
    }
    bank.configure_lanes(nw);
    if (transition) {
      bank.load_batch_loc(words);
    } else {
      bank.load_batch(words);
    }
    bank.good().read_observes(responses);
    bank.first_detections(live, nwz * kWordBits, first);

    // Per batch: live faults first detected there, and their equiv count.
    std::size_t drops[kMaxLaneWords] = {};
    std::int64_t gains[kMaxLaneWords] = {};
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (first[i] < 0) continue;
      const std::size_t j = static_cast<std::size_t>(first[i] / kWordBits);
      ++drops[j];
      gains[j] += live[i]->equiv_count;
    }
    std::size_t left = live.size();
    std::size_t used = 0;  ///< batches applied: through the stop, if any
    for (std::size_t j = 0; j < nwz; ++j) {
      used = j + 1;
      for (std::size_t o = 0; o < num_observes; ++o) misr.absorb(responses[o * nwz + j]);
      covered += gains[j];
      left -= drops[j];
      applied += kWordBits;
      if (applied % opts.report_every == 0 || applied >= opts.max_patterns) {
        res.coverage_curve.emplace_back(
            applied, 100.0 * static_cast<double>(covered) /
                         static_cast<double>(res.total_faults));
      }
      if (left == 0) break;
    }
    drop_first_detected(live, first, used * kWordBits);
    batches += static_cast<std::int64_t>(used);
    if (live.empty()) break;
  }

  res.patterns_applied = applied;
  res.detected = faults.count_equiv(FaultStatus::kDetected);
  res.final_coverage_pct =
      100.0 * static_cast<double>(covered) / static_cast<double>(res.total_faults);
  res.signature = misr.signature();
  // Grading counters of the session, like atpg.sim.*: deterministic (each
  // live fault is graded once per pass) and summed over every session.
  const FaultSimStats sim = bank.take_stats();
  MetricsRegistry& m = metrics();
  m.add("lbist.sim.faults_graded", sim.faults_graded);
  m.add("lbist.sim.node_evals", sim.node_evals);
  m.add("lbist.sim.events", sim.events);
  return res;
}

}  // namespace tpi
