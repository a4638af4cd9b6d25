#include "bist/lbist.hpp"

#include <cassert>

#include "atpg/fault_sim.hpp"
#include "netlist/design_db.hpp"

namespace tpi {

std::uint64_t Lfsr::primitive_polynomial(int degree) {
  // Taps from the standard tables (Xilinx XAPP052 / Golomb); expressed as
  // the feedback mask excluding the implicit x^degree term.
  switch (degree) {
    case 8: return 0xB8;                  // x^8+x^6+x^5+x^4+1
    case 16: return 0xB400;               // x^16+x^14+x^13+x^11+1
    case 24: return 0xE10000;             // x^24+x^23+x^22+x^17+1
    case 32: return 0xA3000000u;          // x^32+x^30+x^26+x^25+1
    case 48: return 0xC00000180000ULL;    // x^48+x^47+x^21+x^20+1
    case 64: return 0xD800000000000000ULL;  // x^64+x^63+x^61+x^60+1
    default: return 0xA3000000u;
  }
}

Lfsr::Lfsr(int degree, std::uint64_t seed) : degree_(degree) {
  assert(degree >= 8 && degree <= 64);
  poly_ = primitive_polynomial(degree);
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
  Word w = 0;
  for (int k = 0; k < kWordBits; ++k) {
    if (next_bit()) w |= Word{1} << k;
  }
  return w;
}

Misr::Misr(int degree, std::uint64_t seed) {
  poly_ = Lfsr::primitive_polynomial(degree);
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
  Lfsr lfsr(opts.lfsr_degree, opts.lfsr_seed);
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

  const std::size_t num_inputs = model.input_nets().size();
  std::vector<Word> words(num_inputs);
  std::vector<Word> responses;
  std::vector<int> first;
  int applied = 0;
  while (applied < opts.max_patterns) {
    // One batch = 64 pseudo-random scan loads, phase-shifted per input by
    // drawing a fresh word from the PRPG stream. Transition sessions run
    // each load as a launch-on-capture pair.
    for (auto& w : words) w = lfsr.next_word();
    if (transition) {
      bank.load_batch_loc(words);
    } else {
      bank.load_batch(words);
    }
    bank.good().read_observes(responses);
    for (const Word r : responses) misr.absorb(r);

    bank.first_detections(live, kWordBits, first);
    drop_first_detected(live, first, kWordBits);
    applied += kWordBits;

    if (applied % opts.report_every == 0 || applied >= opts.max_patterns) {
      const std::int64_t det = faults.count_equiv(FaultStatus::kDetected) +
                               faults.count_equiv(FaultStatus::kScanTested);
      res.coverage_curve.emplace_back(
          applied, 100.0 * static_cast<double>(det) /
                       static_cast<double>(res.total_faults));
    }
    if (live.empty()) break;
  }

  res.patterns_applied = applied;
  res.detected = faults.count_equiv(FaultStatus::kDetected);
  const std::int64_t covered =
      res.detected + faults.count_equiv(FaultStatus::kScanTested);
  res.final_coverage_pct =
      100.0 * static_cast<double>(covered) / static_cast<double>(res.total_faults);
  res.signature = misr.signature();
  return res;
}

LbistResult run_lbist(DesignDB& db, const LbistOptions& opts) {
  return run_lbist(db.comb_model(SeqView::kCapture), opts);
}

}  // namespace tpi
