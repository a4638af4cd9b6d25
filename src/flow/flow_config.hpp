// FlowConfig — the one typed configuration object for a flow run: the
// FlowOptions, the StageMask, the job counts, the SOC knobs and the few
// process settings the benches and the server read. It is built
//
//   * from the environment  — FlowConfig::from_env(), the one reader of
//     TPI_BENCH_JOBS / TPI_ATPG_JOBS / TPI_FAULT_MODEL / TPI_BENCH_SCALE /
//     TPI_BENCH_JSON / TPI_TRACE_DIR / TPI_LEDGER / TPI_LOG_LEVEL /
//     TPI_SERVER_SOCKET / TPI_SERVER_CACHE_MB / TPI_SERVER_QUEUE_LIMIT /
//     TPI_SOC_CORES / TPI_SOC_TAM_WIDTH / TPI_SOC_SCHEDULE;
//   * from JSON             — FlowConfig::from_json(), used by the flow
//     server's submit RPC. It accepts only the keys a submitted job can
//     honour; the process settings stay env-only.
//
// One variable has its own single reader because it acts below the flow
// layer: TPI_TRACE (trace_init_from_env, util/trace.hpp).
//
// Precedence is purely positional: each builder layers over a base
// config, so  from_json(request, from_env())  gives explicit per-job JSON
// the last word over process env, which in turn beats the compiled-in
// defaults. Nothing reads these variables at run time — in particular
// AtpgOptions::jobs is never silently overridden by TPI_ATPG_JOBS once a
// config carries an explicit value (two server tenants with different job
// counts never see each other's env).
//
// FlowEngine, SweepRunner, SocRunner, the benches and the flow server all
// consume the same FlowConfig.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "util/log.hpp"

namespace tpi {

/// SOC-mode knobs (DESIGN.md §16). With `cores` == 0 (the default) a
/// config describes the classic single-core flow and none of these fields
/// appears in to_json() — existing configs, ledger fingerprints and sweep
/// JSON stay byte-identical. With `cores` > 0 the job is a chip: `cores`
/// embedded cores composed from the paper profile set, each wrapped and
/// serialised onto a `tam_width`-bit Test Access Mechanism, with per-core
/// tests scheduled by the `schedule` packer (src/soc). SocRunner
/// (soc/soc.hpp) reads these knobs straight from the FlowConfig; they live
/// here so the flow layer stays below soc.
struct SocKnobs {
  /// Embedded core count; 0 = SOC mode off (TPI_SOC_CORES).
  int cores = 0;
  /// Chip-level TAM width in bits, >= 1 (TPI_SOC_TAM_WIDTH).
  int tam_width = 32;
  /// Test scheduler: "diagonal" (Islam et al. rectangle bin packing by
  /// descending diagonal length) or "serial" (one core after another at
  /// full TAM width — the no-packing baseline). TPI_SOC_SCHEDULE.
  std::string schedule = "diagonal";

  bool operator==(const SocKnobs&) const = default;
};

/// True for the schedule spellings SocKnobs accepts.
bool valid_soc_schedule_name(std::string_view name);

struct FlowConfig {
  // ---- per-job flow definition ----
  /// Named circuit profile: "s38417", "circuit1", "p26909" (paper_profiles).
  /// Ignored in SOC mode (soc.cores > 0), where the chip composes cores
  /// from the whole paper set.
  std::string profile = "s38417";
  /// Uniform profile scale factor (TPI_BENCH_SCALE); 1.0 = paper-sized.
  double scale = 1.0;
  /// Typed flow options: tp_percent, TPI method, seeds, AtpgOptions
  /// (including atpg.jobs), the verify and at-speed LBIST switches.
  FlowOptions options;
  /// Stages to run.
  StageMask stages = StageMask::all();
  /// Flow-server scheduling priority: higher runs first; FIFO within one
  /// priority level.
  int priority = 0;
  /// Per-job flight recorder: capture this job's spans into a private
  /// TraceSink (retrievable via the server's `trace` RPC) even when no
  /// trace_dir is set ("record_trace" JSON key).
  bool record_trace = false;
  /// SOC workload knobs ("soc" JSON object / TPI_SOC_* env); soc.cores == 0
  /// keeps the classic single-core flow and all of its outputs byte-
  /// identical.
  SocKnobs soc;

  /// Sweep/server worker threads (TPI_BENCH_JOBS; <= 0 = hardware). Also
  /// sizes a server SOC job's private core pool, so a submit may set it.
  int bench_jobs = 0;
  /// Directory for per-job flight-recorder files (TPI_TRACE_DIR): each
  /// server job / sweep cell writes its own Chrome-trace JSON here.
  /// Empty = no per-job files (the `trace` RPC still works per job via
  /// record_trace above).
  std::string trace_dir;

  // ---- process-wide settings (env only; never in JSON) ----
  /// Sweep report output path (TPI_BENCH_JSON; empty = not written).
  std::string bench_json;
  /// Run-ledger JSONL path (TPI_LEDGER): every completed flow appends its
  /// deterministic metrics + config fingerprint. Empty = no ledger.
  std::string ledger;
  LogLevel log_level = LogLevel::kWarn;  ///< TPI_LOG_LEVEL
  /// Flow-server listen path (TPI_SERVER_SOCKET), a unix domain socket.
  std::string server_socket = "tpi_server.sock";
  /// Flow-server design-cache budget in MiB (TPI_SERVER_CACHE_MB).
  int server_cache_mb = 256;
  /// Flow-server admission limit (TPI_SERVER_QUEUE_LIMIT): submit RPCs
  /// arriving while this many jobs are already queued (not yet running)
  /// get a structured "queue_full" error instead of queueing. 0 = no
  /// limit (the seed behavior).
  int server_queue_limit = 0;

  /// Layer every recognised TPI_* environment variable over `base`:
  /// unset variables keep the base value, invalid ones warn (via the
  /// util/env.hpp helpers) and keep the base value. This is the only
  /// place process env enters flow configuration.
  static FlowConfig from_env(const FlowConfig& base);
  static FlowConfig from_env();  ///< from_env over the compiled-in defaults

  /// Layer a JSON object over `base`. Recognised keys (DESIGN.md §12):
  /// "profile", "scale", "tp_percent", "tpi_method", "seed", "stages",
  /// "atpg_jobs", "fault_model", "at_speed", "max_patterns", "verify",
  /// "layout_driven_reorder", "timing_driven_tpi",
  /// "timing_exclude_slack_ps", "priority", "record_trace", "bench_jobs",
  /// "trace_dir", "soc" (a nested object with "cores", "tam_width",
  /// "schedule").
  /// Unknown keys — top-level or inside "soc" — and type mismatches fail
  /// with a structured message in *error (when non-null) and return false,
  /// leaving `out` untouched.
  static bool from_json(std::string_view text, const FlowConfig& base, FlowConfig& out,
                        std::string* error = nullptr);

  /// JSON of exactly the keys from_json accepts (optional ones only when
  /// non-default): from_json(to_json(), {}) reproduces every such field.
  std::string to_json() const;

  /// The named profile at `scale` (name kept verbatim so report labels
  /// stay the paper's). Returns false + *error when the name is unknown.
  bool resolve_profile(CircuitProfile& out, std::string* error = nullptr) const;

  /// Worker threads a sweep/server built from this config will use.
  int effective_bench_jobs() const;

  /// Install the process-wide side of the config: the log level, and the
  /// trace sink armed from TPI_TRACE (idempotent).
  void apply_process_settings() const;
};

/// Canonical "hybrid" | "scoap" | "cop" spelling of a TpiMethod.
const char* tpi_method_name(TpiMethod method);
/// Inverse of tpi_method_name; nullopt for unknown spellings.
std::optional<TpiMethod> tpi_method_from_name(std::string_view name);

}  // namespace tpi
