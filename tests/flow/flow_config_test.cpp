// FlowConfig: the single validated reader of the flow's TPI_* variables,
// JSON job configs, and the precedence contract (explicit JSON > process
// env > compiled defaults). The AtpgJobsExplicitConfigBeatsEnv test is the
// regression for the historical bug where TPI_ATPG_JOBS silently
// overwrote per-job AtpgOptions::jobs at run time.
#include "flow/flow_config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "flow/flow.hpp"
#include "util/json.hpp"

namespace tpi {
namespace {

using test::ScopedEnv;

// Round trips parse against a named `defaults` object, not a FlowConfig{}
// temporary: GCC 12 warns -Wmaybe-uninitialized about the temporary's
// strings when it sits inside a gtest ASSERT_* macro.

TEST(FlowConfigTest, FromEnvReadsEveryVariable) {
  const ScopedEnv e1("TPI_BENCH_SCALE", "0.25");
  const ScopedEnv e2("TPI_BENCH_JOBS", "3");
  const ScopedEnv e3("TPI_ATPG_JOBS", "2");
  const ScopedEnv e4("TPI_BENCH_JSON", "out.json");
  const ScopedEnv e5("TPI_LOG_LEVEL", "error");
  const ScopedEnv e6("TPI_SERVER_SOCKET", "/tmp/x.sock");
  const ScopedEnv e7("TPI_SERVER_CACHE_MB", "64");

  const FlowConfig cfg = FlowConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.25);
  EXPECT_EQ(cfg.bench_jobs, 3);
  EXPECT_EQ(cfg.effective_bench_jobs(), 3);
  EXPECT_EQ(cfg.options.atpg.jobs, 2);
  EXPECT_EQ(cfg.bench_json, "out.json");
  EXPECT_EQ(cfg.log_level, LogLevel::kError);
  EXPECT_EQ(cfg.server_socket, "/tmp/x.sock");
  EXPECT_EQ(cfg.server_cache_mb, 64);
}

TEST(FlowConfigTest, FromEnvReadsTelemetryPaths) {
  const ScopedEnv e1("TPI_TRACE_DIR", "/tmp/traces");
  const ScopedEnv e2("TPI_LEDGER", "/tmp/runs.jsonl");
  const FlowConfig cfg = FlowConfig::from_env();
  EXPECT_EQ(cfg.trace_dir, "/tmp/traces");
  EXPECT_EQ(cfg.ledger, "/tmp/runs.jsonl");

  const ScopedEnv e3("TPI_TRACE_DIR", nullptr);
  const ScopedEnv e4("TPI_LEDGER", nullptr);
  FlowConfig base;
  base.trace_dir = "kept";
  base.ledger = "kept.jsonl";
  const FlowConfig inherited = FlowConfig::from_env(base);
  EXPECT_EQ(inherited.trace_dir, "kept");
  EXPECT_EQ(inherited.ledger, "kept.jsonl");
}

TEST(FlowConfigTest, TelemetryKeysParseAndRoundTrip) {
  const FlowConfig base;
  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json("{\"record_trace\": true, \"trace_dir\": \"traces\"}",
                                    base, cfg, &error))
      << error;
  EXPECT_TRUE(cfg.record_trace);
  EXPECT_EQ(cfg.trace_dir, "traces");

  const FlowConfig defaults;
  FlowConfig back;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), defaults, back, &error)) << error;
  EXPECT_TRUE(back.record_trace);
  EXPECT_EQ(back.trace_dir, cfg.trace_dir);

  // Defaults stay off/empty and serialise away entirely.
  const FlowConfig quiet;
  EXPECT_FALSE(quiet.record_trace);
  const std::string json = quiet.to_json();
  EXPECT_EQ(json.find("record_trace"), std::string::npos);
  EXPECT_EQ(json.find("trace_dir"), std::string::npos);
  EXPECT_EQ(json.find("ledger"), std::string::npos);

  EXPECT_FALSE(FlowConfig::from_json("{\"record_trace\": 1}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"trace_dir\": 7}", base, cfg, &error));
}

TEST(FlowConfigTest, FromEnvKeepsBaseForUnsetAndInvalidValues) {
  const ScopedEnv e1("TPI_BENCH_SCALE", "banana");
  const ScopedEnv e2("TPI_BENCH_JOBS", "-4");
  const ScopedEnv e3("TPI_ATPG_JOBS", nullptr);
  const ScopedEnv e4("TPI_LOG_LEVEL", "shouty");

  FlowConfig base;
  base.scale = 0.5;
  base.bench_jobs = 7;
  base.options.atpg.jobs = 5;
  const FlowConfig cfg = FlowConfig::from_env(base);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
  EXPECT_EQ(cfg.bench_jobs, 7);
  EXPECT_EQ(cfg.options.atpg.jobs, 5);
  EXPECT_EQ(cfg.log_level, base.log_level);
}

// TPI_LOG_LEVEL has one reader; apply_process_settings installs what it
// read.
TEST(FlowConfigTest, LogLevelFromEnvReachesTheLogger) {
  const LogLevel saved = log_level();
  FlowConfig base;
  base.log_level = LogLevel::kInfo;
  {
    const ScopedEnv l("TPI_LOG_LEVEL", "error");
    const FlowConfig cfg = FlowConfig::from_env(base);
    EXPECT_EQ(cfg.log_level, LogLevel::kError);
    cfg.apply_process_settings();
    EXPECT_EQ(log_level(), LogLevel::kError);
  }
  {
    const ScopedEnv l("TPI_LOG_LEVEL", nullptr);
    EXPECT_EQ(FlowConfig::from_env(base).log_level, LogLevel::kInfo);
  }
  set_log_level(saved);
}

TEST(FlowConfigTest, FromJsonLayersOverBase) {
  FlowConfig base;
  base.options.atpg.jobs = 3;
  base.scale = 0.5;
  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(
      "{\"profile\": \"circuit1\", \"tp_percent\": 2.5, \"tpi_method\": \"scoap\", "
      "\"seed\": \"0xDEAD\", \"priority\": 4}",
      base, cfg, &error))
      << error;
  EXPECT_EQ(cfg.profile, "circuit1");
  EXPECT_DOUBLE_EQ(cfg.options.tp_percent, 2.5);
  EXPECT_EQ(cfg.options.tpi_method, TpiMethod::kScoap);
  EXPECT_EQ(cfg.options.seed, 0xDEADu);
  EXPECT_EQ(cfg.priority, 4);
  // Untouched keys keep the base layer.
  EXPECT_EQ(cfg.options.atpg.jobs, 3);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
}

// The multi-tenant isolation regression: an explicit per-job config must
// beat the process environment all the way into the ATPG kernel — the env
// is read once into the base config and never again at run time.
TEST(FlowConfigTest, AtpgJobsExplicitConfigBeatsEnv) {
  const ScopedEnv env_jobs("TPI_ATPG_JOBS", "3");
  const FlowConfig base = FlowConfig::from_env();
  ASSERT_EQ(base.options.atpg.jobs, 3);

  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(
      FlowConfig::from_json("{\"atpg_jobs\": 2, \"scale\": 0.01}", base, cfg, &error))
      << error;
  EXPECT_EQ(cfg.options.atpg.jobs, 2);

  // And the engine actually runs with the explicit value.
  CircuitProfile profile;
  ASSERT_TRUE(cfg.resolve_profile(profile, &error)) << error;
  FlowEngine engine(test::lib(), profile, cfg.options);
  const FlowResult& res = engine.run(StageMask::through(Stage::kReorderAtpg));
  const MetricValue* jobs = res.metrics.find("rt.atpg.sim.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->value, 2.0);
}

TEST(FlowConfigTest, StagesParsing) {
  const FlowConfig base;
  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json("{\"stages\": \"all\"}", base, cfg, &error));
  EXPECT_EQ(cfg.stages, StageMask::all());
  ASSERT_TRUE(FlowConfig::from_json("{\"stages\": \"none\"}", base, cfg, &error));
  EXPECT_TRUE(cfg.stages.empty());
  ASSERT_TRUE(FlowConfig::from_json(
      "{\"stages\": [\"tpi_scan\", \"floorplan_place\", \"eco\"]}", base, cfg, &error));
  EXPECT_TRUE(cfg.stages.has(Stage::kTpiScan));
  EXPECT_TRUE(cfg.stages.has(Stage::kEco));
  EXPECT_FALSE(cfg.stages.has(Stage::kSta));
  EXPECT_FALSE(
      FlowConfig::from_json("{\"stages\": [\"warp_drive\"]}", base, cfg, &error));
  // verify: true opts into the stage on top of whatever mask is set.
  ASSERT_TRUE(FlowConfig::from_json("{\"verify\": true}", base, cfg, &error));
  EXPECT_TRUE(cfg.stages.has(Stage::kVerify));
  EXPECT_TRUE(cfg.options.verify);
}

TEST(FlowConfigTest, FaultModelAndAtSpeedKnobsParse) {
  const FlowConfig base;
  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(
      "{\"fault_model\": \"transition\", \"at_speed\": true}", base, cfg, &error))
      << error;
  EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kTransition);
  EXPECT_TRUE(cfg.options.at_speed_lbist);

  ASSERT_TRUE(
      FlowConfig::from_json("{\"fault_model\": \"stuck_at\"}", base, cfg, &error));
  EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kStuckAt);

  EXPECT_FALSE(FlowConfig::from_json("{\"fault_model\": \"bridging\"}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"fault_model\": 1}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"at_speed\": \"yes\"}", base, cfg, &error));
}

TEST(FlowConfigTest, FaultModelKnobsRoundTripAndStayOffDefaultJson) {
  FlowConfig cfg;
  cfg.options.atpg.fault_model = FaultModel::kTransition;
  cfg.options.at_speed_lbist = true;

  const FlowConfig defaults;
  FlowConfig back;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), defaults, back, &error)) << error;
  EXPECT_EQ(back.options.atpg.fault_model, FaultModel::kTransition);
  EXPECT_TRUE(back.options.at_speed_lbist);

  // Defaults serialise away entirely: pre-existing configs keep their
  // serialised form, and with it their ledger config fingerprints.
  const std::string quiet = defaults.to_json();
  EXPECT_EQ(quiet.find("fault_model"), std::string::npos);
  EXPECT_EQ(quiet.find("at_speed"), std::string::npos);
}

TEST(FlowConfigTest, FromEnvReadsFaultModelAndQueueLimit) {
  {
    const ScopedEnv e1("TPI_FAULT_MODEL", "transition");
    const ScopedEnv e2("TPI_SERVER_QUEUE_LIMIT", "32");
    const FlowConfig cfg = FlowConfig::from_env();
    EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kTransition);
    EXPECT_EQ(cfg.server_queue_limit, 32);
  }
  {
    // An unknown spelling keeps the base model instead of failing the run.
    const ScopedEnv e1("TPI_FAULT_MODEL", "bridging");
    FlowConfig base;
    base.options.atpg.fault_model = FaultModel::kTransition;
    const FlowConfig cfg = FlowConfig::from_env(base);
    EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kTransition);
  }
}

TEST(FlowConfigTest, RejectsUnknownKeysAndBadTypes) {
  const FlowConfig base;
  FlowConfig cfg;
  cfg.profile = "sentinel";
  std::string error;
  EXPECT_FALSE(FlowConfig::from_json("{\"proifle\": \"s38417\"}", base, cfg, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(FlowConfig::from_json("{\"scale\": \"big\"}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"scale\": -1}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("not json", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("[1,2]", base, cfg, &error));
  // Process settings are env-only: a submit cannot set them, so their old
  // JSON keys are unknown like any other.
  for (const char* key : {"bench_json", "trace", "ledger", "log_level", "fuzz_seed",
                          "fuzz_iters", "server_socket", "server_cache_mb",
                          "server_queue_limit", "simd"}) {
    SCOPED_TRACE(key);
    error.clear();
    EXPECT_FALSE(FlowConfig::from_json(std::string("{\"") + key + "\": \"x\"}", base, cfg,
                                       &error));
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  }
  // Failed parses leave the output untouched.
  EXPECT_EQ(cfg.profile, "sentinel");
}

TEST(FlowConfigTest, SocKnobsParseRoundTripAndReadEnv) {
  const FlowConfig base;
  FlowConfig cfg;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(
      "{\"soc\": {\"cores\": 8, \"tam_width\": 16, \"schedule\": \"serial\"}}", base,
      cfg, &error))
      << error;
  EXPECT_EQ(cfg.soc.cores, 8);
  EXPECT_EQ(cfg.soc.tam_width, 16);
  EXPECT_EQ(cfg.soc.schedule, "serial");

  const FlowConfig defaults;
  FlowConfig back;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), defaults, back, &error)) << error;
  EXPECT_EQ(back.soc, cfg.soc);

  // SOC mode off => the "soc" key never appears (ledger fingerprints and
  // baseline JSON of single-core configs stay byte-identical).
  EXPECT_EQ(defaults.to_json().find("\"soc\""), std::string::npos);

  const ScopedEnv e1("TPI_SOC_CORES", "12");
  const ScopedEnv e2("TPI_SOC_TAM_WIDTH", "64");
  const ScopedEnv e3("TPI_SOC_SCHEDULE", "serial");
  const FlowConfig env = FlowConfig::from_env();
  EXPECT_EQ(env.soc.cores, 12);
  EXPECT_EQ(env.soc.tam_width, 64);
  EXPECT_EQ(env.soc.schedule, "serial");
  // Invalid env values warn and keep the base, like every other TPI_* knob.
  const ScopedEnv e4("TPI_SOC_CORES", "-3");
  const ScopedEnv e5("TPI_SOC_SCHEDULE", "greedy");
  const FlowConfig env2 = FlowConfig::from_env();
  EXPECT_EQ(env2.soc.cores, 0);
  EXPECT_EQ(env2.soc.schedule, "diagonal");
}

TEST(FlowConfigTest, RejectsMalformedSocBlocks) {
  const FlowConfig base;
  FlowConfig cfg;
  cfg.soc.cores = 77;  // sentinel: failed parses must not touch the output
  std::string error;
  EXPECT_FALSE(FlowConfig::from_json("{\"soc\": 3}", base, cfg, &error));
  EXPECT_NE(error.find("\"soc\""), std::string::npos);
  EXPECT_NE(error.find("expected an object"), std::string::npos);
  EXPECT_FALSE(FlowConfig::from_json("{\"soc\": {\"coers\": 4}}", base, cfg, &error));
  EXPECT_NE(error.find("unknown key \"coers\""), std::string::npos);
  EXPECT_FALSE(
      FlowConfig::from_json("{\"soc\": {\"cores\": \"four\"}}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"soc\": {\"cores\": -1}}", base, cfg, &error));
  EXPECT_FALSE(
      FlowConfig::from_json("{\"soc\": {\"tam_width\": 0}}", base, cfg, &error));
  EXPECT_FALSE(
      FlowConfig::from_json("{\"soc\": {\"tam_width\": 1.5}}", base, cfg, &error));
  EXPECT_FALSE(
      FlowConfig::from_json("{\"soc\": {\"schedule\": \"greedy\"}}", base, cfg, &error));
  EXPECT_NE(error.find("\"diagonal\" or \"serial\""), std::string::npos);
  EXPECT_EQ(cfg.soc.cores, 77);
}

TEST(FlowConfigTest, ToJsonRoundTrips) {
  FlowConfig cfg;
  cfg.profile = "p26909";
  cfg.scale = 0.25;
  cfg.options.tp_percent = 3.0;
  cfg.options.tpi_method = TpiMethod::kCop;
  cfg.options.seed = 0x123456789ABCDEF0ull;
  cfg.options.atpg.jobs = 2;
  cfg.stages = StageMask::all().without(Stage::kSta);
  cfg.priority = -2;

  const FlowConfig defaults;
  FlowConfig back;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), defaults, back, &error)) << error;
  EXPECT_EQ(back.profile, cfg.profile);
  EXPECT_DOUBLE_EQ(back.scale, cfg.scale);
  EXPECT_DOUBLE_EQ(back.options.tp_percent, cfg.options.tp_percent);
  EXPECT_EQ(back.options.tpi_method, cfg.options.tpi_method);
  EXPECT_EQ(back.options.seed, cfg.options.seed);
  EXPECT_EQ(back.options.atpg.jobs, cfg.options.atpg.jobs);
  EXPECT_EQ(back.stages, cfg.stages);
  EXPECT_EQ(back.priority, cfg.priority);
}

// to_json writes exactly the keys from_json accepts: with every optional
// field off its default, the key list is the full schema, and process
// settings never appear (so they stay out of ledger fingerprints).
TEST(FlowConfigTest, ToJsonWritesExactlyTheAcceptedKeys) {
  const FlowConfig defaults;
  FlowConfig cfg;
  cfg.options.atpg.fault_model = FaultModel::kTransition;
  cfg.options.at_speed_lbist = true;
  cfg.options.atpg.max_patterns = 77;
  cfg.options.verify = true;
  cfg.stages = StageMask::all().with(Stage::kVerify);  // what "verify": true implies
  cfg.options.layout_driven_reorder = !defaults.options.layout_driven_reorder;
  cfg.options.timing_driven_tpi = true;
  cfg.options.timing_exclude_slack_ps = 12.5;
  cfg.record_trace = true;
  cfg.bench_jobs = 3;
  cfg.trace_dir = "traces";
  cfg.soc.cores = 2;
  cfg.bench_json = "out.json";
  cfg.ledger = "runs.jsonl";
  cfg.log_level = LogLevel::kDebug;
  cfg.server_socket = "x.sock";
  cfg.server_cache_mb = 8;
  cfg.server_queue_limit = 4;

  const JsonParseResult parsed = json_parse(cfg.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<std::string> keys;
  for (const auto& [key, v] : parsed.value.as_object()) keys.push_back(key);
  const std::vector<std::string> want{
      "profile", "scale", "tp_percent", "tpi_method", "seed", "stages", "atpg_jobs",
      "priority", "fault_model", "at_speed", "max_patterns", "verify",
      "layout_driven_reorder", "timing_driven_tpi", "timing_exclude_slack_ps",
      "record_trace", "bench_jobs", "trace_dir", "soc"};
  EXPECT_EQ(keys, want);

  FlowConfig back;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), defaults, back, &error)) << error;
  EXPECT_EQ(back.to_json(), cfg.to_json());
}

TEST(FlowConfigTest, ResolveProfileScalesAndKeepsPaperName) {
  FlowConfig cfg;
  cfg.profile = "s38417";
  cfg.scale = 0.1;
  CircuitProfile p;
  std::string error;
  ASSERT_TRUE(cfg.resolve_profile(p, &error)) << error;
  EXPECT_EQ(p.name, "s38417");
  EXPECT_LT(p.num_ffs, s38417_profile().num_ffs);

  cfg.profile = "nonesuch";
  EXPECT_FALSE(cfg.resolve_profile(p, &error));
  EXPECT_NE(error.find("nonesuch"), std::string::npos);
}

}  // namespace
}  // namespace tpi
