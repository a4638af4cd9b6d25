// FlowConfig: the single validated site for TPI_* environment parsing,
// JSON job configs, and the precedence contract (explicit JSON > process
// env > compiled defaults). The AtpgJobsExplicitConfigBeatsEnv test is the
// regression for the historical bug where TPI_ATPG_JOBS silently
// overwrote per-job AtpgOptions::jobs at run time.
#include "flow/flow_config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "../common/test_circuits.hpp"
#include "flow/flow.hpp"

namespace tpi {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

TEST(FlowConfigTest, FromEnvReadsEveryVariable) {
  const ScopedEnv e1("TPI_BENCH_SCALE", "0.25");
  const ScopedEnv e2("TPI_BENCH_JOBS", "3");
  const ScopedEnv e3("TPI_ATPG_JOBS", "2");
  const ScopedEnv e4("TPI_BENCH_JSON", "out.json");
  const ScopedEnv e5("TPI_TRACE", "trace.json");
  const ScopedEnv e6("TPI_LOG_LEVEL", "error");
  const ScopedEnv e7("TPI_FUZZ_SEED", "0xABCD");
  const ScopedEnv e8("TPI_FUZZ_ITERS", "17");
  const ScopedEnv e9("TPI_SERVER_SOCKET", "/tmp/x.sock");
  const ScopedEnv e10("TPI_SERVER_CACHE_MB", "64");

  const FlowConfig cfg = FlowConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.25);
  EXPECT_EQ(cfg.bench_jobs, 3);
  EXPECT_EQ(cfg.effective_bench_jobs(), 3);
  EXPECT_EQ(cfg.options.atpg.jobs, 2);
  EXPECT_EQ(cfg.bench_json, "out.json");
  EXPECT_EQ(cfg.trace_path, "trace.json");
  EXPECT_EQ(cfg.log_level, LogLevel::kError);
  EXPECT_EQ(cfg.fuzz_seed, 0xABCDu);
  EXPECT_EQ(cfg.fuzz_options().iterations, 17);
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
  ASSERT_TRUE(FlowConfig::from_json(
      "{\"record_trace\": true, \"trace_dir\": \"traces\", "
      "\"ledger\": \"runs.jsonl\"}",
      base, cfg, &error))
      << error;
  EXPECT_TRUE(cfg.record_trace);
  EXPECT_EQ(cfg.trace_dir, "traces");
  EXPECT_EQ(cfg.ledger, "runs.jsonl");

  FlowConfig back;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), FlowConfig{}, back, &error)) << error;
  EXPECT_TRUE(back.record_trace);
  EXPECT_EQ(back.trace_dir, cfg.trace_dir);
  EXPECT_EQ(back.ledger, cfg.ledger);

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
  const ScopedEnv e5("TPI_FUZZ_ITERS", "0");

  FlowConfig base;
  base.scale = 0.5;
  base.bench_jobs = 7;
  base.options.atpg.jobs = 5;
  base.fuzz_iters = 33;
  const FlowConfig cfg = FlowConfig::from_env(base);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
  EXPECT_EQ(cfg.bench_jobs, 7);
  EXPECT_EQ(cfg.options.atpg.jobs, 5);
  EXPECT_EQ(cfg.log_level, base.log_level);
  EXPECT_EQ(cfg.fuzz_iters, 33);
}

TEST(FlowConfigTest, BenchVerboseAliasOnlyUpgradesFallback) {
  {
    const ScopedEnv v("TPI_BENCH_VERBOSE", "1");
    const ScopedEnv l("TPI_LOG_LEVEL", nullptr);
    EXPECT_EQ(FlowConfig::from_env().log_level, LogLevel::kInfo);
  }
  {
    const ScopedEnv v("TPI_BENCH_VERBOSE", "1");
    const ScopedEnv l("TPI_LOG_LEVEL", "silent");
    EXPECT_EQ(FlowConfig::from_env().log_level, LogLevel::kSilent);
  }
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
  FlowEngine engine(test::lib(), cfg);
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
      "{\"fault_model\": \"transition\", \"at_speed\": true, "
      "\"server_queue_limit\": 8}",
      base, cfg, &error))
      << error;
  EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kTransition);
  EXPECT_TRUE(cfg.options.at_speed_lbist);
  EXPECT_EQ(cfg.server_queue_limit, 8);

  ASSERT_TRUE(
      FlowConfig::from_json("{\"fault_model\": \"stuck_at\"}", base, cfg, &error));
  EXPECT_EQ(cfg.options.atpg.fault_model, FaultModel::kStuckAt);

  EXPECT_FALSE(FlowConfig::from_json("{\"fault_model\": \"bridging\"}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"fault_model\": 1}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"at_speed\": \"yes\"}", base, cfg, &error));
  EXPECT_FALSE(FlowConfig::from_json("{\"server_queue_limit\": -1}", base, cfg, &error));
}

TEST(FlowConfigTest, FaultModelKnobsRoundTripAndStayOffDefaultJson) {
  FlowConfig cfg;
  cfg.options.atpg.fault_model = FaultModel::kTransition;
  cfg.options.at_speed_lbist = true;
  cfg.server_queue_limit = 16;

  FlowConfig back;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), FlowConfig{}, back, &error)) << error;
  EXPECT_EQ(back.options.atpg.fault_model, FaultModel::kTransition);
  EXPECT_TRUE(back.options.at_speed_lbist);
  EXPECT_EQ(back.server_queue_limit, 16);

  // Defaults serialise away entirely: pre-existing configs keep their
  // serialised form, and with it their ledger config fingerprints.
  const std::string quiet = FlowConfig{}.to_json();
  EXPECT_EQ(quiet.find("fault_model"), std::string::npos);
  EXPECT_EQ(quiet.find("at_speed"), std::string::npos);
  EXPECT_EQ(quiet.find("server_queue_limit"), std::string::npos);
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

  FlowConfig back;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), FlowConfig{}, back, &error)) << error;
  EXPECT_EQ(back.soc, cfg.soc);

  // SOC mode off => the "soc" key never appears (ledger fingerprints and
  // baseline JSON of single-core configs stay byte-identical).
  EXPECT_EQ(FlowConfig{}.to_json().find("\"soc\""), std::string::npos);

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
  cfg.fuzz_iters = 5;

  FlowConfig back;
  std::string error;
  ASSERT_TRUE(FlowConfig::from_json(cfg.to_json(), FlowConfig{}, back, &error)) << error;
  EXPECT_EQ(back.profile, cfg.profile);
  EXPECT_DOUBLE_EQ(back.scale, cfg.scale);
  EXPECT_DOUBLE_EQ(back.options.tp_percent, cfg.options.tp_percent);
  EXPECT_EQ(back.options.tpi_method, cfg.options.tpi_method);
  EXPECT_EQ(back.options.seed, cfg.options.seed);
  EXPECT_EQ(back.options.atpg.jobs, cfg.options.atpg.jobs);
  EXPECT_EQ(back.stages, cfg.stages);
  EXPECT_EQ(back.priority, cfg.priority);
  EXPECT_EQ(back.fuzz_iters, cfg.fuzz_iters);
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

TEST(FlowConfigTest, EngineCtorRejectsUnknownProfile) {
  FlowConfig cfg;
  cfg.profile = "nonesuch";
  EXPECT_THROW(FlowEngine(test::lib(), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tpi
