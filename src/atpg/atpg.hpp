// Compact ATPG driver: random bootstrap + PODEM with random fill and
// dynamic fault dropping + reverse-order static compaction.
//
// This mirrors the Philips CAT flow the paper uses (Geuzebroek et al.,
// ITC'00/'02): compact stuck-at pattern sets for scan-based external test.
// The Table 1 metrics fall out of the result: pattern count, fault
// coverage FC, fault efficiency FE, and — combined with the scan-chain
// configuration — test data volume (eq. 1) and test application time
// (eq. 2).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"

namespace tpi {

struct AtpgOptions {
  std::uint64_t seed = 0xA7961;
  /// Fault model to target. kStuckAt (the default) keeps the seed's
  /// behavior bit-for-bit; kTransition grades launch-on-capture pattern
  /// pairs (the stored pattern is the launch frame, PIs held across both
  /// cycles, pseudo-inputs fed from the launch frame's captured state).
  FaultModel fault_model = FaultModel::kStuckAt;
  PodemOptions podem;
  int max_patterns = 200000;
  /// Fault-simulation worker threads (FaultSimBank): 1 = serial, <= 0 =
  /// hardware concurrency. The AtpgResult is bit-identical for any value.
  int jobs = 1;
};

/// One scan-test pattern: values for every controllable input (PIs and
/// scan-cell states), aligned with CombModel::input_nets().
struct TestPattern {
  std::vector<std::uint8_t> bits;
};

/// Pack patterns[0, count) (count <= nw x 64) into `nw` lane words per
/// input, input-major: pattern k sets bit k%64 of words[i*nw + k/64] when
/// its bit i is nonzero. Lanes past `count` (phantom all-zero vectors that
/// FaultSimBank::first_detections never counts) and inputs past a short
/// pattern's end stay zero. The one packer of ATPG's three phases and of
/// replay, which takes patterns from outside.
void pack_patterns(const TestPattern* patterns, std::size_t count, std::size_t num_inputs, int nw,
                   std::vector<Word>& words);

struct AtpgResult {
  FaultModel fault_model = FaultModel::kStuckAt;  ///< model this run targeted
  FaultList faults;  ///< final per-fault statuses
  /// For kStuckAt: one capture cycle per pattern. For kTransition: each
  /// pattern is the launch frame of a launch-on-capture pair.
  std::vector<TestPattern> patterns;

  std::int64_t total_faults = 0;  ///< uncollapsed universe (Table 1 #faults)
  std::int64_t detected = 0;      ///< equivalent faults detected by patterns
  std::int64_t scan_tested = 0;
  std::int64_t redundant = 0;
  std::int64_t aborted = 0;

  double fault_coverage_pct = 0.0;    ///< FC = (detected+scan)/total
  double fault_efficiency_pct = 0.0;  ///< FE = (detected+scan+redundant)/total
  int patterns_before_compaction = 0;
  int podem_calls = 0;
  int podem_aborts = 0;
  std::int64_t podem_backtracks = 0;  ///< summed over all PODEM calls

  int num_patterns() const { return static_cast<int>(patterns.size()); }
};

/// Publishes its counters to the active MetricsRegistry (atpg.podem.*,
/// atpg.sim.*, and the runtime gauge rt.atpg.sim.jobs) and wraps each
/// phase in an atpg.random / atpg.podem / atpg.static_compaction span.
AtpgResult run_atpg(const CombModel& model, const TestabilityResult& testability,
                    const AtpgOptions& opts = {});

class DesignDB;

/// Same driver over the design database: pulls the capture-view CombModel
/// and testability from the DB cache (a rebuild only when the netlist was
/// edited since they were last built).
AtpgResult run_atpg(DesignDB& db, const AtpgOptions& opts = {});

/// Test data volume in scan bits, eq. (1): TDV = 2n((l_max+1)p + l_max).
std::int64_t test_data_volume(int num_chains, int max_chain_length, int num_patterns);

/// Test application time in clock cycles, eq. (2) generalized to multi-cycle
/// capture: TAT = (l_max+c)p + l_max with c capture cycles per pattern
/// (c = 2 for launch-on-capture transition test; c = 1 is the paper's
/// formula).
std::int64_t test_application_time(int max_chain_length, int num_patterns,
                                   int capture_cycles = 1);

}  // namespace tpi
