#include "bist/lbist.hpp"

#include <array>
#include <bit>
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

namespace {

// Degree of the PRPG of every LBIST session.
constexpr int kLfsrDegree = 32;

// One Galois step: shift right and, when the shifted-out bit was set, XOR
// in the feedback polynomial (-(s & 1) is all ones exactly then).
std::uint64_t galois_step(std::uint64_t s, std::uint64_t fb) { return (s >> 1) ^ (-(s & 1) & fb); }

// The 64-step jump tables of one degree: entry [b][v] is the jump of the
// start state v << 8b. They are filled from the jumps of the `degree`
// basis states 1 << i, each run through 64 steps of step()'s recurrence; an
// entry is then the XOR of the basis jumps of its set bits (the step is
// linear over GF(2)), so every table lookup reproduces the bit-serial
// register exactly. Every degree divides into whole bytes.
std::vector<Lfsr::Jump> build_jump_tables(int degree) {
  const std::uint64_t fb = Lfsr::primitive_polynomial(degree);
  std::vector<Lfsr::Jump> basis(static_cast<std::size_t>(degree));
  for (int i = 0; i < degree; ++i) {
    Lfsr::Jump& j = basis[static_cast<std::size_t>(i)];
    std::uint64_t s = std::uint64_t{1} << i;
    for (int k = 0; k < kWordBits; ++k) {
      s = galois_step(s, fb);
      j.word |= (s & 1) << k;
    }
    j.state = s;
  }
  std::vector<Lfsr::Jump> tables(static_cast<std::size_t>(degree / 8) * 256);
  for (std::size_t b = 0; b < tables.size() / 256; ++b) {
    Lfsr::Jump* t = tables.data() + b * 256;
    for (unsigned v = 1; v < 256; ++v) {
      // v's jump = (v without its lowest bit)'s jump ^ the lowest bit's.
      const Lfsr::Jump& rest = t[v & (v - 1)];
      const Lfsr::Jump& low = basis[b * 8 + static_cast<std::size_t>(std::countr_zero(v))];
      t[v] = {rest.word ^ low.word, rest.state ^ low.state};
    }
  }
  return tables;
}

const Lfsr::Jump* jump_tables(int degree) {
  // One set per supported degree, built on first use (thread-safe static
  // initialisation); 8, 16, 24, 32, 48 and 64 map to slots 0..7. A set is
  // degree/8 x 256 x 16 bytes: 16 KB at the LBIST default of 32, 32 KB at 64.
  static const std::array<std::vector<Lfsr::Jump>, 8> all = [] {
    std::array<std::vector<Lfsr::Jump>, 8> t;
    for (const int d : {8, 16, 24, 32, 48, 64}) {
      t[static_cast<std::size_t>(d / 8 - 1)] = build_jump_tables(d);
    }
    return t;
  }();
  return all[static_cast<std::size_t>(degree / 8 - 1)].data();
}

}  // namespace

Lfsr::Lfsr(int degree, std::uint64_t seed)
    : degree_(degree), poly_(primitive_polynomial(degree)), jump_(jump_tables(degree)) {
  mask_ = degree == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << degree) - 1);
  state_ = (seed & mask_) != 0 ? (seed & mask_) : 1;  // never all-zero
}

std::uint64_t Lfsr::step() {
  state_ = galois_step(state_, poly_);
  return state_;
}

Word Lfsr::next_word() {
  Word w = 0;
  std::uint64_t next = 0;
  std::uint64_t s = state_;
  const int bytes = degree_ / 8;
  for (int b = 0; b < bytes; ++b, s >>= 8) {
    const Jump& j = jump_[b * 256 + static_cast<int>(s & 0xFF)];
    w ^= j.word;
    next ^= j.state;
  }
  state_ = next;
  return w;
}

Misr::Misr(int degree, std::uint64_t seed) : poly_(Lfsr::primitive_polynomial(degree)) {
  mask_ = degree == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << degree) - 1);
  state_ = seed & mask_;
}

void Misr::absorb(std::uint64_t value) {
  state_ = (galois_step(state_, poly_) ^ value) & mask_;
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
  Lfsr lfsr(kLfsrDegree);  // every session starts from the default seed
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
  // Resolved once for the session; drop_first_detected keeps them aligned.
  std::vector<FaultTask> tasks = resolve_fault_tasks(model, live);

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
    bank.first_detections(live, tasks, nwz * kWordBits, first);

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
    drop_first_detected(live, tasks, first, used * kWordBits);
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
