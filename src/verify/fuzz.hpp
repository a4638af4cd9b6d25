// Transform fuzzing: randomized mutator pipelines checked for mission-mode
// equivalence.
//
// From a fixed seed the fuzzer generates a circuit (src/circuits), applies
// a random pipeline of DfT mutators (TSFF insertion at 0–5% of the FF
// count, scan insertion, chain stitching, control-net buffering, clock
// buffer / filler ECOs through DesignDB), and asserts the mutant is
// mission-mode equivalent to the pre-transform netlist via a miter +
// EquivChecker. A failure is shrunk automatically: first the transform
// pipeline (greedy drop), then the counterexample trace (frames, then
// bits). Each transform position draws from its own Rng keyed on
// (iteration, position), so dropping a transform never perturbs the
// randomness of the ones that remain — shrinking stays faithful.
//
// Every run folds the final mutant netlist text and outcome of each
// iteration into a FNV-1a digest; the digest is the determinism contract
// checked by tests (bit-identical at any TPI_BENCH_JOBS / TPI_ATPG_JOBS).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuits/profiles.hpp"
#include "verify/equiv.hpp"

namespace tpi {

class CellLibrary;
class DesignDB;
class Rng;

struct FuzzTransform {
  std::string name;
  std::function<void(DesignDB&, Rng&)> apply;
};

/// The standard mutator set: tpi_insert, scan_insert, chain_stitch,
/// ctrl_buffer, clock_buffer_eco, filler_eco. Each is guarded to be a no-op
/// when its precondition does not hold (e.g. stitching twice).
std::vector<FuzzTransform> default_fuzz_transforms();

/// Fast generator profile used when FuzzOptions does not override it.
CircuitProfile default_fuzz_profile();

/// Reduced EquivOptions budget for inner-loop fuzz checks.
EquivOptions fuzz_equiv_budget();

struct FuzzOptions {
  std::uint64_t seed = 0xF422;
  int iterations = 50;
  CircuitProfile profile = default_fuzz_profile();
  EquivOptions equiv = fuzz_equiv_budget();
};

struct FuzzFailure {
  int iteration = -1;
  std::vector<std::string> pipeline;   ///< transforms as applied
  std::vector<std::string> minimized;  ///< shrunk failing subsequence
  std::string error;                   ///< structural error, if any
  CexTrace cex;                        ///< shrunk trace (empty for structural)
};

struct FuzzReport {
  int iterations_run = 0;
  std::int64_t transforms_applied = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over mutants + outcomes
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

class TransformFuzzer {
 public:
  explicit TransformFuzzer(const CellLibrary& lib, FuzzOptions opts = {});

  /// Extend the transform set (tests inject broken mutators).
  void add_transform(FuzzTransform transform);
  const std::vector<FuzzTransform>& transforms() const { return transforms_; }

  /// Run opts.iterations pipelines. Deterministic in opts.seed.
  FuzzReport run();

 private:
  struct PlanStep {
    int transform = 0;  ///< index into transforms_
    int position = 0;   ///< original pipeline slot — keys the per-step Rng
  };

  std::string apply_pipeline(Netlist& nl, std::uint64_t iter_seed,
                             const std::vector<PlanStep>& steps) const;
  /// Applies `steps` to a fresh copy of `golden` and checks it. Returns
  /// true when the pipeline fails (structural or functional); fills the
  /// optional outputs.
  bool pipeline_fails(const Netlist& golden, std::uint64_t iter_seed,
                      const std::vector<PlanStep>& steps, bool shrink_cex, std::string* error,
                      CexTrace* cex) const;

  const CellLibrary* lib_;
  FuzzOptions opts_;
  std::vector<FuzzTransform> transforms_;
};

}  // namespace tpi
