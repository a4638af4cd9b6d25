#include "flow/flow_config.hpp"

#include <cmath>

#include "util/env.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Bounds shared by the env and JSON paths. Job counts of 0 mean "hardware
// concurrency" throughout the codebase, so 0 is in range.
constexpr long kMaxJobs = 4096;

std::optional<StageMask> stages_from_json(const JsonValue& v, std::string* error) {
  if (v.is_string()) {
    if (v.as_string() == "all") return StageMask::all();
    if (v.as_string() == "none") return StageMask::none();
    if (error) *error = "stages: expected \"all\", \"none\" or an array of stage names";
    return std::nullopt;
  }
  if (!v.is_array()) {
    if (error) *error = "stages: expected \"all\", \"none\" or an array of stage names";
    return std::nullopt;
  }
  StageMask mask = StageMask::none();
  for (const JsonValue& e : v.as_array()) {
    if (!e.is_string()) {
      if (error) *error = "stages: array entries must be stage-name strings";
      return std::nullopt;
    }
    const std::optional<Stage> s = stage_from_name(e.as_string());
    if (!s) {
      if (error) *error = "stages: unknown stage \"" + e.as_string() + "\"";
      return std::nullopt;
    }
    mask = mask.with(*s);
  }
  return mask;
}

JsonValue stages_to_json(StageMask mask) {
  if (mask == StageMask::all()) return JsonValue("all");
  JsonArray arr;
  for (const Stage s : kAllStages) {
    if (mask.has(s)) arr.emplace_back(stage_name(s));
  }
  return JsonValue(std::move(arr));
}

// Seeds may arrive as JSON numbers (when they fit a double exactly) or as
// decimal/hex strings for full 64-bit range.
std::optional<std::uint64_t> u64_from_json(const JsonValue& v) {
  if (v.is_number()) {
    const double d = v.as_number();
    if (d < 0.0 || d != std::floor(d) || d > 9.0e15) return std::nullopt;
    return static_cast<std::uint64_t>(d);
  }
  if (v.is_string()) return parse_u64(v.as_string());
  return std::nullopt;
}

std::optional<long> int_from_json(const JsonValue& v, long lo, long hi) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_number();
  if (d != std::floor(d)) return std::nullopt;
  const long l = static_cast<long>(d);
  if (l < lo || l > hi) return std::nullopt;
  return l;
}

// SOC limits: a chip of up to 4096 embedded cores on a TAM of up to 1024
// bits covers anything the scheduler can usefully pack.
constexpr long kMaxSocCores = 4096;
constexpr long kMaxTamWidth = 1024;

// Strict "soc" block parser: every key must be known and well-typed, so a
// misspelled knob surfaces as a structured error instead of a silently
// ignored field (the soc block gates whether a job is a chip at all).
bool soc_from_json(const JsonValue& v, SocKnobs& out, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = "config: \"soc\": " + msg;
    return false;
  };
  if (!v.is_object()) return fail("expected an object");
  for (const auto& [key, e] : v.as_object()) {
    if (key == "cores") {
      const std::optional<long> n = int_from_json(e, 0, kMaxSocCores);
      if (!n) return fail("\"cores\": expected a core count in [0, 4096]");
      out.cores = static_cast<int>(*n);
    } else if (key == "tam_width") {
      const std::optional<long> w = int_from_json(e, 1, kMaxTamWidth);
      if (!w) return fail("\"tam_width\": expected a TAM width in [1, 1024]");
      out.tam_width = static_cast<int>(*w);
    } else if (key == "schedule") {
      if (!e.is_string() || !valid_soc_schedule_name(e.as_string())) {
        return fail("\"schedule\": expected \"diagonal\" or \"serial\"");
      }
      out.schedule = e.as_string();
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  return true;
}

}  // namespace

bool valid_soc_schedule_name(std::string_view name) {
  return name == "diagonal" || name == "serial";
}

const char* tpi_method_name(TpiMethod method) {
  switch (method) {
    case TpiMethod::kCop: return "cop";
    case TpiMethod::kScoap: return "scoap";
    case TpiMethod::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<TpiMethod> tpi_method_from_name(std::string_view name) {
  if (name == "cop") return TpiMethod::kCop;
  if (name == "scoap") return TpiMethod::kScoap;
  if (name == "hybrid") return TpiMethod::kHybrid;
  return std::nullopt;
}

FlowConfig FlowConfig::from_env() { return from_env(FlowConfig{}); }

FlowConfig FlowConfig::from_env(const FlowConfig& base) {
  FlowConfig cfg = base;
  cfg.scale = env_positive_double("TPI_BENCH_SCALE", base.scale);
  cfg.bench_jobs = static_cast<int>(env_int("TPI_BENCH_JOBS", base.bench_jobs, 0, kMaxJobs));
  cfg.options.atpg.jobs =
      static_cast<int>(env_int("TPI_ATPG_JOBS", base.options.atpg.jobs, 0, kMaxJobs));
  if (const std::optional<std::string> v = env_string("TPI_FAULT_MODEL")) {
    if (const std::optional<FaultModel> m = fault_model_from_name(*v)) {
      cfg.options.atpg.fault_model = *m;
    } else {
      log_warn() << "config: invalid TPI_FAULT_MODEL=\"" << *v
                 << "\" (want stuck_at|transition)";
    }
  }
  cfg.server_queue_limit = static_cast<int>(
      env_int("TPI_SERVER_QUEUE_LIMIT", base.server_queue_limit, 0, kMaxJobs));
  if (const std::optional<std::string> v = env_string("TPI_BENCH_JSON")) cfg.bench_json = *v;
  if (const std::optional<std::string> v = env_string("TPI_TRACE_DIR")) cfg.trace_dir = *v;
  if (const std::optional<std::string> v = env_string("TPI_LEDGER")) cfg.ledger = *v;

  if (const std::optional<std::string> v = env_string("TPI_LOG_LEVEL")) {
    if (const std::optional<LogLevel> parsed = parse_log_level(*v)) {
      cfg.log_level = *parsed;
    } else {
      log_warn() << "config: invalid TPI_LOG_LEVEL=\"" << *v
                 << "\" (want debug|info|warn|error|silent)";
    }
  }

  if (const std::optional<std::string> v = env_string("TPI_SERVER_SOCKET")) {
    cfg.server_socket = *v;
  }
  cfg.server_cache_mb =
      static_cast<int>(env_int("TPI_SERVER_CACHE_MB", base.server_cache_mb, 1, 1 << 20));
  cfg.soc.cores = static_cast<int>(env_int("TPI_SOC_CORES", base.soc.cores, 0, kMaxSocCores));
  cfg.soc.tam_width =
      static_cast<int>(env_int("TPI_SOC_TAM_WIDTH", base.soc.tam_width, 1, kMaxTamWidth));
  if (const std::optional<std::string> v = env_string("TPI_SOC_SCHEDULE")) {
    if (valid_soc_schedule_name(*v)) {
      cfg.soc.schedule = *v;
    } else {
      log_warn() << "config: invalid TPI_SOC_SCHEDULE=\"" << *v
                 << "\" (want diagonal|serial)";
    }
  }
  return cfg;
}

bool FlowConfig::from_json(std::string_view text, const FlowConfig& base, FlowConfig& out,
                           std::string* error) {
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    if (error) *error = "config: " + parsed.error;
    return false;
  }
  if (!parsed.value.is_object()) {
    if (error) *error = "config: expected a JSON object";
    return false;
  }

  FlowConfig cfg = base;
  for (const auto& [key, v] : parsed.value.as_object()) {
    auto type_error = [&](const char* want) {
      if (error) *error = "config: \"" + key + "\": expected " + want;
      return false;
    };
    if (key == "profile") {
      if (!v.is_string()) return type_error("a profile-name string");
      cfg.profile = v.as_string();
    } else if (key == "scale") {
      if (!v.is_number() || !(v.as_number() > 0.0)) return type_error("a positive number");
      cfg.scale = v.as_number();
    } else if (key == "tp_percent") {
      if (!v.is_number() || v.as_number() < 0.0) return type_error("a non-negative number");
      cfg.options.tp_percent = v.as_number();
    } else if (key == "tpi_method") {
      if (!v.is_string()) return type_error("\"cop\", \"scoap\" or \"hybrid\"");
      const std::optional<TpiMethod> m = tpi_method_from_name(v.as_string());
      if (!m) return type_error("\"cop\", \"scoap\" or \"hybrid\"");
      cfg.options.tpi_method = *m;
    } else if (key == "seed") {
      const std::optional<std::uint64_t> s = u64_from_json(v);
      if (!s) return type_error("a 64-bit seed (number or string)");
      cfg.options.seed = *s;
    } else if (key == "stages") {
      const std::optional<StageMask> m = stages_from_json(v, error);
      if (!m) return false;
      cfg.stages = *m;
    } else if (key == "atpg_jobs") {
      const std::optional<long> j = int_from_json(v, 0, kMaxJobs);
      if (!j) return type_error("a worker count in [0, 4096]");
      cfg.options.atpg.jobs = static_cast<int>(*j);
    } else if (key == "fault_model") {
      if (!v.is_string()) return type_error("\"stuck_at\" or \"transition\"");
      const std::optional<FaultModel> m = fault_model_from_name(v.as_string());
      if (!m) return type_error("\"stuck_at\" or \"transition\"");
      cfg.options.atpg.fault_model = *m;
    } else if (key == "at_speed") {
      if (!v.is_bool()) return type_error("a boolean");
      cfg.options.at_speed_lbist = v.as_bool();
    } else if (key == "max_patterns") {
      const std::optional<long> p = int_from_json(v, 1, 100000000);
      if (!p) return type_error("a positive pattern cap");
      cfg.options.atpg.max_patterns = static_cast<int>(*p);
    } else if (key == "verify") {
      if (!v.is_bool()) return type_error("a boolean");
      cfg.options.verify = v.as_bool();
      if (v.as_bool()) cfg.stages = cfg.stages.with(Stage::kVerify);
    } else if (key == "layout_driven_reorder") {
      if (!v.is_bool()) return type_error("a boolean");
      cfg.options.layout_driven_reorder = v.as_bool();
    } else if (key == "timing_driven_tpi") {
      if (!v.is_bool()) return type_error("a boolean");
      cfg.options.timing_driven_tpi = v.as_bool();
    } else if (key == "timing_exclude_slack_ps") {
      if (!v.is_number()) return type_error("a number");
      cfg.options.timing_exclude_slack_ps = v.as_number();
    } else if (key == "priority") {
      const std::optional<long> p = int_from_json(v, -1000, 1000);
      if (!p) return type_error("a priority in [-1000, 1000]");
      cfg.priority = static_cast<int>(*p);
    } else if (key == "bench_jobs") {
      const std::optional<long> j = int_from_json(v, 0, kMaxJobs);
      if (!j) return type_error("a worker count in [0, 4096]");
      cfg.bench_jobs = static_cast<int>(*j);
    } else if (key == "trace_dir") {
      if (!v.is_string()) return type_error("a directory-path string");
      cfg.trace_dir = v.as_string();
    } else if (key == "record_trace") {
      if (!v.is_bool()) return type_error("a boolean");
      cfg.record_trace = v.as_bool();
    } else if (key == "soc") {
      if (!soc_from_json(v, cfg.soc, error)) return false;
    } else {
      if (error) *error = "config: unknown key \"" + key + "\"";
      return false;
    }
  }
  out = cfg;
  return true;
}

std::string FlowConfig::to_json() const {
  const FlowConfig defaults;
  JsonValue o = JsonValue(JsonObject{});
  o.set("profile", profile);
  o.set("scale", scale);
  o.set("tp_percent", options.tp_percent);
  o.set("tpi_method", tpi_method_name(options.tpi_method));
  o.set("seed", std::to_string(options.seed));
  o.set("stages", stages_to_json(stages));
  o.set("atpg_jobs", options.atpg.jobs);
  o.set("priority", priority);
  // New knobs are emitted only when non-default, so pre-existing configs
  // keep their serialised form (and hence their ledger fingerprints).
  if (options.atpg.fault_model != defaults.options.atpg.fault_model) {
    o.set("fault_model", fault_model_name(options.atpg.fault_model));
  }
  if (options.at_speed_lbist) o.set("at_speed", true);
  if (options.atpg.max_patterns != defaults.options.atpg.max_patterns) {
    o.set("max_patterns", options.atpg.max_patterns);
  }
  if (options.verify) o.set("verify", true);
  if (options.layout_driven_reorder != defaults.options.layout_driven_reorder) {
    o.set("layout_driven_reorder", options.layout_driven_reorder);
  }
  if (options.timing_driven_tpi) o.set("timing_driven_tpi", true);
  if (options.timing_exclude_slack_ps != defaults.options.timing_exclude_slack_ps) {
    o.set("timing_exclude_slack_ps", options.timing_exclude_slack_ps);
  }
  if (record_trace) o.set("record_trace", true);
  if (bench_jobs != defaults.bench_jobs) o.set("bench_jobs", bench_jobs);
  if (!trace_dir.empty()) o.set("trace_dir", trace_dir);
  // SOC mode is opt-in: a single-core config (cores == 0) serialises with
  // no "soc" key at all, whatever the other soc fields hold, so existing
  // configs and their ledger fingerprints are untouched.
  if (soc.cores > 0) {
    JsonValue s{JsonObject{}};
    s.set("cores", soc.cores);
    s.set("tam_width", soc.tam_width);
    s.set("schedule", soc.schedule);
    o.set("soc", std::move(s));
  }
  return o.serialise();
}

bool FlowConfig::resolve_profile(CircuitProfile& out, std::string* error) const {
  for (const CircuitProfile& p : paper_profiles()) {
    if (p.name == profile) {
      if (scale == 1.0) {
        out = p;
      } else {
        out = scaled(p, scale);
        out.name = p.name;  // keep the paper's circuit names in reports
      }
      return true;
    }
  }
  if (error) {
    *error = "unknown profile \"" + profile + "\" (want s38417, circuit1 or p26909)";
  }
  return false;
}

int FlowConfig::effective_bench_jobs() const {
  return bench_jobs > 0 ? bench_jobs
                        : static_cast<int>(ThreadPool::default_concurrency());
}

void FlowConfig::apply_process_settings() const {
  set_log_level(log_level);
  trace_init_from_env();  // idempotent; arms the TPI_TRACE sink when set
}

}  // namespace tpi
