// Logic BIST substrate (§2 of the paper).
//
// "Most TPI methods are used with logic built-in self-test (LBIST). LBIST
// implements a pseudo-random stimulus generator on-chip ... the fault
// coverage achieved with pseudo-random patterns only is generally
// insufficient ... Test points are therefore inserted to increase the
// detectability of these faults."
//
// This module provides that context: an LFSR pattern generator with a
// phase-shifter-style expansion across scan chains, a MISR response
// compactor, and a BIST session runner that fault-grades pseudo-random
// patterns — the experiment that motivates test point insertion in the
// first place (pseudo-random-resistant faults cap the coverage curve).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/parallel_sim.hpp"

namespace tpi {

/// Galois-form LFSR over a primitive polynomial (bit i of the polynomial
/// mask = coefficient of x^i, implicit x^degree term).
class Lfsr {
 public:
  /// Standard primitive polynomial for the given degree: 8, 16, 24, 32, 48
  /// or 64. Throws std::invalid_argument for any other degree.
  static std::uint64_t primitive_polynomial(int degree);

  /// Throws std::invalid_argument when primitive_polynomial(degree) does.
  explicit Lfsr(int degree, std::uint64_t seed = 0xACE1u);

  int degree() const { return degree_; }
  std::uint64_t state() const { return state_; }

  /// Advance one step and return the new state.
  std::uint64_t step();

  /// Produce the next pseudo-random bit (LSB of the state after stepping).
  bool next_bit() { return (step() & 1u) != 0; }

  /// Fill a 64-pattern word: bit k of the result is the k-th next_bit()
  /// draw. The 64 steps are applied as one jump through per-byte tables of
  /// the state (see Jump), so the word and the state left behind equal 64
  /// next_bit() calls bit for bit.
  Word next_word();

  /// One table entry of the 64-step jump: the output word and the state
  /// 64 steps later, for a start state with one byte set. A Galois step is
  /// linear over GF(2), so both are XORs of the entries of the state's
  /// bytes.
  struct Jump {
    Word word = 0;
    std::uint64_t state = 0;
  };

 private:
  int degree_;
  std::uint64_t poly_;
  const Jump* jump_;  ///< [degree/8][256] entries shared by every register of this degree
  std::uint64_t mask_;
  std::uint64_t state_;
};

/// Multiple-input signature register: compacts observed responses into a
/// signature (Galois LFSR with parallel inputs XORed into the low bits).
class Misr {
 public:
  /// Same degrees as Lfsr; throws std::invalid_argument for any other.
  explicit Misr(int degree = 32, std::uint64_t seed = 0);

  /// Absorb one observation word (e.g. a PO value across 64 patterns the
  /// caller serialises, or one per-pattern response slice).
  void absorb(std::uint64_t value);

  std::uint64_t signature() const { return state_; }

 private:
  std::uint64_t poly_;
  std::uint64_t mask_;
  std::uint64_t state_;
};

struct LbistOptions {
  /// Pseudo-random budget (>= 0), applied in whole 64-pattern batches.
  int max_patterns = 16384;
  int report_every = 1024;      ///< granularity of the coverage curve (>= 1)

  /// kStuckAt grades each scan load in a single capture cycle (the seed
  /// behavior); kTransition grades launch-on-capture pattern pairs.
  FaultModel fault_model = FaultModel::kStuckAt;
  /// At-speed timing qualification (kTransition only): the capture clock
  /// period in ps — take it from run_sta's worst path (F_max) to clock the
  /// BIST at speed, or a multiple of it for a slow-speed session. 0
  /// disables qualification (every transition fault stays eligible).
  double capture_period_ps = 0.0;
  /// Assumed gross-delay defect size in ps; <= 0 means "one full capture
  /// period" (a gross defect), making a fault testable at period T exactly
  /// when its site has positive arrival time.
  double fault_size_ps = 0.0;
  /// Per-net data arrival times from run_sta (StaResult::arrival_ps),
  /// required for qualification; may be null when capture_period_ps == 0.
  const std::vector<double>* arrival_ps = nullptr;
};

struct LbistResult {
  /// Coverage curve: (patterns applied, fault coverage %) per report step.
  std::vector<std::pair<int, double>> coverage_curve;
  double final_coverage_pct = 0.0;
  std::int64_t detected = 0;         ///< equivalent faults detected
  std::int64_t total_faults = 0;     ///< uncollapsed universe
  std::uint64_t signature = 0;       ///< MISR signature of the good machine
  int patterns_applied = 0;
  /// Echo of LbistOptions::capture_period_ps (0 when not qualifying).
  double capture_period_ps = 0.0;
  /// Equivalent transition faults whose site delay can violate the capture
  /// period (eligible for at-speed detection); total_faults when no
  /// qualification was requested.
  std::int64_t qualified = 0;
};

/// Run a pseudo-random BIST session on the capture-view model: degree-32
/// LFSR-driven scan loads, fault grading with dropping, MISR signature of
/// the fault-free responses. Scan-tested faults count as covered
/// (shift/flush tests). Patterns are graded in super-batches of up to
/// kMaxLaneWords x 64; the result is that of applying them 64 at a time. Throws
/// std::invalid_argument for report_every < 1 or max_patterns < 0.
LbistResult run_lbist(const CombModel& model, const LbistOptions& opts = {});
/// The same session over `faults`, which must be build_fault_list(model,
/// opts.fault_model) as built: sessions that share a model and fault model
/// build the list once and hand each its own copy.
LbistResult run_lbist(const CombModel& model, FaultList faults, const LbistOptions& opts);

}  // namespace tpi
