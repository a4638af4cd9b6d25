#include "flow/flow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"

namespace tpi {
namespace {

using test::lib;

// End-to-end flow properties, driven through FlowEngine + StageMask.
constexpr StageMask kNoAtpg = StageMask::all().without(Stage::kReorderAtpg);
constexpr StageMask kLayoutOnly =
    StageMask::all().without(Stage::kReorderAtpg).without(Stage::kExtract).without(Stage::kSta);

FlowResult run_engine(const CircuitProfile& p, const FlowOptions& opts,
                      StageMask stages = StageMask::all()) {
  FlowEngine engine(lib(), p, opts);
  return engine.run(stages);
}

FlowResult run_tiny(double tp_percent, StageMask stages = StageMask::all(),
                    std::uint64_t seed = 4242) {
  FlowOptions opts;
  opts.tp_percent = tp_percent;
  return run_engine(test::tiny_profile(seed), opts, stages);
}

TEST(FlowTest, PopulatesAllTableFields) {
  const FlowResult r = run_tiny(2.0);
  // Table 1 fields.
  EXPECT_GT(r.num_ffs, 0);
  EXPECT_GT(r.num_chains, 0);
  EXPECT_GT(r.max_chain_length, 0);
  EXPECT_GT(r.num_faults, 0);
  EXPECT_GT(r.fault_coverage_pct, 50.0);
  EXPECT_GE(r.fault_efficiency_pct, r.fault_coverage_pct);
  EXPECT_GT(r.saf_patterns, 0);
  EXPECT_EQ(r.tdv_bits,
            test_data_volume(r.num_chains, r.max_chain_length, r.saf_patterns));
  EXPECT_EQ(r.tat_cycles, test_application_time(r.max_chain_length, r.saf_patterns));
  // Table 2 fields.
  EXPECT_GT(r.num_cells, 0);
  EXPECT_GT(r.num_rows, 0);
  EXPECT_GT(r.core_area_um2, 0.0);
  EXPECT_GT(r.chip_area_um2, r.core_area_um2);
  EXPECT_GT(r.wire_length_um, 0.0);
  EXPECT_GT(r.filler_area_pct, 0.0);
  // Table 3 fields.
  ASSERT_TRUE(r.sta.worst.valid);
  EXPECT_GT(r.sta.worst.t_cp_ps, 0.0);
}

TEST(FlowTest, TestPointCountFollowsPercentage) {
  const CircuitProfile p = test::tiny_profile(4242);
  // tiny profile has 24 FFs: 10% -> 2 TSFFs (rounded), and #FF grows.
  const FlowResult base = run_tiny(0.0, kNoAtpg);
  const FlowResult tp = run_tiny(10.0, kNoAtpg);
  EXPECT_EQ(base.num_test_points, 0);
  EXPECT_EQ(tp.num_test_points, static_cast<int>(std::lround(0.10 * p.num_ffs)));
  EXPECT_EQ(tp.num_ffs, base.num_ffs + tp.num_test_points);
}

TEST(FlowTest, AreaGrowsWithTestPoints) {
  const FlowResult base = run_tiny(0.0, kNoAtpg);
  const FlowResult tp = run_tiny(20.0, kNoAtpg);  // exaggerate for a tiny circuit
  EXPECT_GT(tp.num_cells, base.num_cells);
  EXPECT_GE(tp.core_area_um2, base.core_area_um2);
}

TEST(FlowTest, DeterministicEndToEnd) {
  const FlowResult a = run_tiny(5.0);
  const FlowResult b = run_tiny(5.0);
  EXPECT_EQ(a.saf_patterns, b.saf_patterns);
  EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um);
  EXPECT_DOUBLE_EQ(a.sta.worst.t_cp_ps, b.sta.worst.t_cp_ps);
}

TEST(FlowTest, RowUtilizationNearTarget) {
  const FlowResult r = run_tiny(0.0, kNoAtpg);
  // tiny profile targets 90%; fillers occupy the rest.
  EXPECT_NEAR(r.row_utilization_pct + r.filler_area_pct, 100.0, 0.5);
  EXPECT_NEAR(r.row_utilization_pct, 90.0, 5.0);
}

TEST(FlowTest, SkipsAtpgAndStaWhenMaskedOff) {
  const FlowResult r = run_tiny(0.0, kLayoutOnly, /*seed=*/11);
  EXPECT_EQ(r.saf_patterns, 0);
  EXPECT_FALSE(r.sta.worst.valid);
  EXPECT_GT(r.num_cells, 0);  // layout still ran
}

TEST(FlowTest, TimingDrivenTpiAvoidsCriticalNets) {
  const CircuitProfile p = test::tiny_profile(12);
  FlowOptions normal;
  normal.tp_percent = 12.0;
  FlowOptions timing = normal;
  timing.timing_driven_tpi = true;
  timing.timing_exclude_slack_ps = 600.0;
  const FlowResult a = run_engine(p, normal, kNoAtpg);
  const FlowResult b = run_engine(p, timing, kNoAtpg);
  ASSERT_TRUE(a.sta.worst.valid && b.sta.worst.valid);
  // Timing-driven TPI keeps test points off small-slack paths; the
  // resulting critical path carries no test points.
  EXPECT_EQ(b.sta.worst.test_points_on_path, 0);
  EXPECT_GT(b.num_test_points, 0);
}

TEST(FlowTest, ScanReorderShortensScanWires) {
  const CircuitProfile p = test::small_profile(77);
  FlowOptions ordered;
  FlowOptions unordered = ordered;
  unordered.layout_driven_reorder = false;
  const FlowResult a = run_engine(p, ordered, kLayoutOnly);
  const FlowResult b = run_engine(p, unordered, kLayoutOnly);
  EXPECT_LT(a.scan_wire_length_um, b.scan_wire_length_um);
}

TEST(FlowTest, RunsOnExternalNetlist) {
  // The flow must accept any netlist, not only generated ones.
  auto nl = generate_circuit(lib(), test::tiny_profile(13));
  CircuitProfile p = test::tiny_profile(13);
  FlowOptions opts;
  opts.tp_percent = 4.0;
  FlowEngine engine(*nl, p, opts);
  const FlowResult r = engine.run(kNoAtpg);
  EXPECT_GT(r.num_cells, 0);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

}  // namespace
}  // namespace tpi
