// SOC-scale workloads (DESIGN.md §16): compose a chip from N embedded
// cores drawn from the paper's profile set, run the full single-core flow
// per core, wrap each core onto the chip's Test Access Mechanism
// (wrapper.hpp) and schedule the per-core tests with rectangle bin
// packing (packing.hpp) into one chip-level test application time.
//
// Determinism contract: every per-core flow is bit-deterministic (same
// seeds, same profile), the cores are merged in core order on the caller
// thread, and the wrapper/packer layer is serial integer arithmetic — so
// soc_result_to_json() is byte-identical at any TPI_BENCH_JOBS /
// TPI_ATPG_JOBS and across SIMD backends.
//
// Concurrency: SocRunner::run fans the per-core flows onto a ThreadPool.
// Pass an external pool only when the calling thread does NOT itself live
// on that pool (the pool has no work stealing, so a worker blocking on
// same-pool futures can deadlock); pass nullptr to use a private pool —
// what the flow server does, since its jobs already run on pool workers.
#pragma once

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "circuits/design_cache.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "soc/packing.hpp"
#include "soc/wrapper.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tpi {

/// One embedded core: a paper profile (possibly scaled) plus its chip-level
/// instance label ("core3:circuit1").
struct SocCoreSpec {
  std::string label;
  CircuitProfile profile;
};

/// The deterministic chip composition for `cores` embedded cores: core i
/// instantiates paper profile i % 3 at size ladder {1, 0.7, 0.5}[(i/3) % 3]
/// x `scale`. Repeats share a DesignCache entry, so an N-core chip
/// generates at most 9 distinct designs.
std::vector<SocCoreSpec> soc_core_specs(int cores, double scale);

/// One core's slice of the chip result: envelope, chosen wrapper and
/// committed schedule slot, plus the full per-core flow result.
struct SocCoreResult {
  std::string label;
  std::string profile_name;
  int width = 1;                 ///< TAM lines assigned by the scheduler
  int tam_start = 0;
  std::int64_t start_cycle = 0;
  std::int64_t finish_cycle = 0;
  std::int64_t test_cycles = 0;  ///< T(width) for the chosen wrapper
  std::int64_t scan_in = 0;      ///< wrapper s_i at the chosen width
  std::int64_t scan_out = 0;     ///< wrapper s_o at the chosen width
  CoreTestEnvelope envelope;
  FlowResult flow;
};

struct SocResult {
  int cores = 0;
  int tam_width = 0;
  SocScheduleMethod schedule = SocScheduleMethod::kDiagonal;
  std::vector<SocCoreResult> per_core;      ///< in core order
  std::int64_t chip_tat_cycles = 0;         ///< scheduled makespan
  std::int64_t serial_tat_cycles = 0;       ///< full-width one-after-another baseline
  double tam_utilization_pct = 0.0;
  /// Per-core deterministic flow metrics merged in core order, plus the
  /// soc.* chip metrics (soc.chip_tat_cycles, soc.tam_utilization_pct, ...).
  MetricsSnapshot metrics;
  bool cancelled = false;
};

/// Deterministic JSON of a chip result: chip scalars, one compact object
/// per core (no nested flow JSON — ledger lines stay one-screen) and the
/// merged kNoRuntime metrics snapshot.
JsonValue soc_result_to_json_value(const SocResult& result);
std::string soc_result_to_json(const SocResult& result);

/// Runs the chip a FlowConfig describes: config.soc (cores, TAM width,
/// schedule; cores > 0 — callers gate SOC mode on that), scale, options
/// and stages.
class SocRunner {
 public:
  explicit SocRunner(FlowConfig config) : config_(std::move(config)) {}

  /// Run the chip: per-core flows on `pool` (nullptr = a private pool of
  /// config.effective_bench_jobs() workers), designs checked out of
  /// `cache` (nullptr = a private per-run cache), cancellation checked at
  /// every core's stage boundaries via `cancel` (nullptr = never). Results
  /// merge in core order regardless of scheduling.
  SocResult run(const CellLibrary& lib, ThreadPool* pool = nullptr,
                DesignCache* cache = nullptr,
                const std::atomic<bool>* cancel = nullptr) const;

 private:
  FlowConfig config_;
};

}  // namespace tpi
