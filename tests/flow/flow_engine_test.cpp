// FlowEngine stage-model tests: stage masks, stepping with run_stage and
// per-stage timings.
#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "flow/flow.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(StageMaskTest, NamedStageAlgebra) {
  EXPECT_TRUE(StageMask::all().has(Stage::kSta));
  EXPECT_FALSE(StageMask::none().has(Stage::kTpiScan));
  EXPECT_TRUE(StageMask::none().empty());

  const StageMask m = StageMask::all().without(Stage::kReorderAtpg);
  EXPECT_FALSE(m.has(Stage::kReorderAtpg));
  EXPECT_TRUE(m.has(Stage::kEco));
  EXPECT_EQ(m.with(Stage::kReorderAtpg), StageMask::all());

  const StageMask upto = StageMask::through(Stage::kFloorplanPlace);
  EXPECT_TRUE(upto.has(Stage::kTpiScan));
  EXPECT_TRUE(upto.has(Stage::kFloorplanPlace));
  EXPECT_FALSE(upto.has(Stage::kReorderAtpg));

  EXPECT_FALSE(StageMask::all().has(Stage::kVerify));  // verify is opt-in
}

TEST(StageMaskTest, StageNamesRoundTrip) {
  for (const Stage s : kAllStages) {
    const auto parsed = stage_from_name(stage_name(s));
    ASSERT_TRUE(parsed.has_value()) << stage_name(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(stage_from_name("no_such_stage").has_value());
}

TEST(FlowEngineTest, RecordsPerStageTimings) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  FlowEngine engine(lib(), test::tiny_profile(22), opts);
  const FlowResult& r = engine.run();
  for (const Stage s : kAllStages) {
    EXPECT_EQ(r.timings.stage_ran(s), StageMask::all().has(s)) << stage_name(s);
    EXPECT_GE(r.timings[s], 0.0);
  }
  EXPECT_GT(r.timings.total_ms(), 0.0);
}

TEST(FlowEngineTest, PartialFlowStopsAtPlacement) {
  FlowEngine engine(lib(), test::tiny_profile(23), FlowOptions{});
  const FlowResult& r = engine.run(StageMask::through(Stage::kFloorplanPlace));
  EXPECT_TRUE(engine.stage_ran(Stage::kFloorplanPlace));
  EXPECT_FALSE(engine.stage_ran(Stage::kEco));
  EXPECT_NE(engine.floorplan(), nullptr);
  EXPECT_NE(engine.placement(), nullptr);
  EXPECT_EQ(engine.routes(), nullptr);
  EXPECT_EQ(r.num_cells, 0);  // Table 2 fields are produced by the eco stage
  EXPECT_FALSE(r.sta.worst.valid);
  EXPECT_FALSE(r.timings.stage_ran(Stage::kEco));
}

TEST(FlowEngineTest, SkipsStagesWithMissingPrerequisites) {
  // eco masked off: extract and sta have no routes to work with and must
  // skip rather than crash.
  FlowEngine engine(lib(), test::tiny_profile(24), FlowOptions{});
  const StageMask mask = StageMask::all().without(Stage::kEco);
  const FlowResult& r = engine.run(mask);
  EXPECT_FALSE(engine.stage_ran(Stage::kEco));
  EXPECT_FALSE(engine.stage_ran(Stage::kExtract));
  EXPECT_FALSE(engine.stage_ran(Stage::kSta));
  EXPECT_TRUE(engine.stage_ran(Stage::kReorderAtpg));
  EXPECT_GT(r.saf_patterns, 0);  // ATPG ran on the placed netlist
}

TEST(FlowEngineTest, StagesCanBeRunOneAtATime) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  FlowEngine engine(lib(), test::tiny_profile(25), opts);
  EXPECT_FALSE(engine.run_stage(Stage::kEco));  // prerequisites missing
  // Cell count only grows along the flow (TPI, scan, buffers, CTS, fillers).
  std::size_t cells = engine.netlist().num_cells();
  const auto step = [&](Stage s) {
    const bool ran = engine.run_stage(s);
    EXPECT_GE(engine.netlist().num_cells(), cells) << stage_name(s);
    cells = engine.netlist().num_cells();
    return ran;
  };
  EXPECT_TRUE(step(Stage::kTpiScan));
  EXPECT_FALSE(engine.run_stage(Stage::kTpiScan));  // already ran
  EXPECT_TRUE(step(Stage::kFloorplanPlace));
  EXPECT_TRUE(step(Stage::kReorderAtpg));
  EXPECT_TRUE(step(Stage::kEco));
  EXPECT_TRUE(step(Stage::kExtract));
  EXPECT_TRUE(step(Stage::kSta));
  EXPECT_TRUE(engine.result().sta.worst.valid);
}

TEST(FlowEngineTest, ResultCarriesMetricsSnapshot) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  FlowEngine engine(lib(), test::tiny_profile(28), opts);
  const FlowResult& r = engine.run();
  ASSERT_FALSE(r.metrics.empty());
  const MetricValue* stages = r.metrics.find("flow.stages_run");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->count, 6u);
  for (const char* name : {"atpg.podem.calls", "atpg.sim.faults_graded",
                           "placement.global_iterations", "routing.nets",
                           "routing.net_length_um", "sta.runs", "sim.good_sweeps"}) {
    EXPECT_NE(r.metrics.find(name), nullptr) << name;
  }
  // Per-engine isolation: a second engine starts from an empty registry.
  FlowEngine fresh(lib(), test::tiny_profile(28), opts);
  fresh.run(StageMask::through(Stage::kTpiScan));
  const MetricValue* fresh_stages = fresh.result().metrics.find("flow.stages_run");
  ASSERT_NE(fresh_stages, nullptr);
  EXPECT_EQ(fresh_stages->count, 1u);
}

// The opt-in verify stage: the default flow's transforms must be mission-
// mode equivalent to the generated netlist, and every claimed ATPG fault
// detection must replay.
TEST(FlowEngineTest, VerifyStageConfirmsFlowAndReplay) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  opts.verify = true;
  FlowEngine engine(lib(), test::tiny_profile(30), opts);
  const FlowResult& r = engine.run(StageMask::all().with(Stage::kVerify));
  EXPECT_TRUE(engine.stage_ran(Stage::kVerify));
  ASSERT_TRUE(r.verify.ran);
  EXPECT_TRUE(r.verify.ok()) << r.verify.error;
  EXPECT_TRUE(r.verify.equivalent);
  EXPECT_GT(r.verify.matched_pos, 0);
  EXPECT_GT(r.verify.frames_simulated, 0);
  EXPECT_TRUE(r.verify.replay_ran);
  EXPECT_GT(r.verify.replay_claimed, 0);
  EXPECT_EQ(r.verify.replay_confirmed, r.verify.replay_claimed);

  const MetricValue* stages = r.metrics.find("flow.stages_run");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->count, 7u);
  for (const char* name : {"verify.miter.matched_pos", "verify.equiv.frames",
                           "verify.equiv.mismatches", "verify.replay.checked",
                           "verify.replay.confirmed", "verify.replay.failures"}) {
    EXPECT_NE(r.metrics.find(name), nullptr) << name;
  }
  const MetricValue* mismatches = r.metrics.find("verify.equiv.mismatches");
  ASSERT_NE(mismatches, nullptr);
  EXPECT_EQ(mismatches->count, 0u);
}

// Without FlowOptions::verify no pre-transform snapshot exists, so the
// stage must skip instead of diffing the netlist against itself.
TEST(FlowEngineTest, VerifyStageRequiresSnapshot) {
  FlowEngine engine(lib(), test::tiny_profile(31), FlowOptions{});
  EXPECT_TRUE(engine.run_stage(Stage::kTpiScan));
  EXPECT_FALSE(engine.run_stage(Stage::kVerify));
  EXPECT_FALSE(engine.result().verify.ran);
}

// Masking off reorder_atpg skips ATPG but still stitches the scan chains,
// which the downstream layout stages need.
TEST(FlowEngineTest, MaskedAtpgKeepsScanStitchingIdentical) {
  FlowOptions opts;
  opts.tp_percent = 5.0;
  FlowEngine engine(lib(), test::tiny_profile(27), opts);
  const FlowResult& r = engine.run(StageMask::all().without(Stage::kReorderAtpg));
  EXPECT_EQ(r.saf_patterns, 0);
  EXPECT_GT(r.num_chains, 0);
}

}  // namespace
}  // namespace tpi
