// Pattern-replay validation: independently confirm ATPG's detection claims.
//
// For every fault the ATPG marked kDetected, re-inject the fault and replay
// the emitted pattern set with a plain full-sweep forced resimulation —
// deliberately NOT the event-driven FaultSimBank grading, so a bug in its cone
// limiting or event scheduling cannot hide itself. Transition fault lists
// are replayed over the same launch-on-capture frame pair the ATPG graded
// (capture-frame forced resim, gated by the launch value at the site). A claimed
// detection that never produces an observable difference across the whole
// pattern set is a replay failure (and would mean the reported fault
// coverage, and hence the paper's Table 1 FC/FE columns, overstate reality).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atpg/atpg.hpp"
#include "sim/comb_model.hpp"

namespace tpi {

struct ReplayFailure {
  std::size_t fault_index = 0;  ///< index into the FaultList
  NetId net = kNoNet;
  bool stuck1 = false;
  bool is_stem = false;
};

struct ReplayReport {
  std::int64_t claimed = 0;    ///< faults with status kDetected
  std::int64_t confirmed = 0;  ///< claims reproduced by replay
  std::int64_t patterns = 0;   ///< patterns replayed
  std::vector<ReplayFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Replay `patterns` against every kDetected fault in `faults` over the
/// capture-view model the ATPG ran on. Deterministic; single-threaded.
ReplayReport replay_patterns(const CombModel& capture_model, const FaultList& faults,
                             const std::vector<TestPattern>& patterns);

inline ReplayReport replay_patterns(const CombModel& capture_model, const AtpgResult& atpg) {
  return replay_patterns(capture_model, atpg.faults, atpg.patterns);
}

}  // namespace tpi
