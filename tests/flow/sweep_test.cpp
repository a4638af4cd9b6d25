// SweepRunner tests: deterministic parallel execution of the paper's
// (circuit x tp_percent) grid. The load-bearing property is that results
// are bit-identical at any job count.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "flow/flow_config.hpp"
#include "flow/sweep.hpp"
#include "util/json_check.hpp"
#include "util/ledger.hpp"
#include "util/metrics.hpp"

namespace tpi {
namespace {

using test::lib;

std::vector<SweepJob> tiny_grid() {
  return SweepRunner::grid({test::tiny_profile(31), test::tiny_profile(32)},
                           {0.0, 2.0, 5.0}, FlowOptions{}, StageMask::all());
}

TEST(SweepRunnerTest, GridEnumeratesCircuitMajorWithLabels) {
  const auto jobs = tiny_grid();
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].label, "tiny/tp=0");
  EXPECT_EQ(jobs[1].label, "tiny/tp=2");
  EXPECT_EQ(jobs[2].label, "tiny/tp=5");
  EXPECT_DOUBLE_EQ(jobs[1].options.tp_percent, 2.0);
  EXPECT_EQ(jobs[3].profile.seed, test::tiny_profile(32).seed);
  EXPECT_EQ(jobs[0].stages, StageMask::all());
}

TEST(SweepRunnerTest, EffectiveJobsClampsToAtLeastOne) {
  EXPECT_GE(SweepRunner(SweepOptions{}).effective_jobs(), 1);
  SweepOptions two;
  two.jobs = 2;
  EXPECT_EQ(SweepRunner(two).effective_jobs(), 2);
}

// The acceptance property: same seeds => bit-identical FlowResult for every
// grid cell, regardless of how many workers executed the sweep.
TEST(SweepRunnerTest, ParallelMatchesSerialBitExactly) {
  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.progress = false;
  SweepOptions parallel_opts;
  parallel_opts.jobs = 4;
  parallel_opts.progress = false;

  const SweepReport serial = SweepRunner(serial_opts).run(lib(), tiny_grid());
  const SweepReport parallel = SweepRunner(parallel_opts).run(lib(), tiny_grid());

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const FlowResult& a = serial.cells[i].result;
    const FlowResult& b = parallel.cells[i].result;
    SCOPED_TRACE(serial.cells[i].job.label);
    EXPECT_EQ(serial.cells[i].job.label, parallel.cells[i].job.label);
    EXPECT_EQ(a.num_test_points, b.num_test_points);
    EXPECT_EQ(a.num_ffs, b.num_ffs);
    EXPECT_EQ(a.num_chains, b.num_chains);
    EXPECT_EQ(a.num_faults, b.num_faults);
    EXPECT_EQ(a.saf_patterns, b.saf_patterns);
    EXPECT_EQ(a.tdv_bits, b.tdv_bits);
    EXPECT_EQ(a.num_cells, b.num_cells);
    EXPECT_DOUBLE_EQ(a.fault_coverage_pct, b.fault_coverage_pct);
    EXPECT_DOUBLE_EQ(a.scan_wire_length_um, b.scan_wire_length_um);
    EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um);
    EXPECT_DOUBLE_EQ(a.chip_area_um2, b.chip_area_um2);
    EXPECT_DOUBLE_EQ(a.core_area_um2, b.core_area_um2);
    EXPECT_DOUBLE_EQ(a.sta.worst.t_cp_ps, b.sta.worst.t_cp_ps);
  }
}

// The deterministic metrics snapshot merged into the report must be
// bit-identical at any job count: exactly what the TPI_BENCH_JSON
// "metrics" key promises.
TEST(SweepRunnerTest, MergedMetricsDeterministicAcrossJobCounts) {
  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.progress = false;
  SweepOptions parallel_opts;
  parallel_opts.jobs = 4;
  parallel_opts.progress = false;

  const SweepReport serial = SweepRunner(serial_opts).run(lib(), tiny_grid());
  const SweepReport parallel = SweepRunner(parallel_opts).run(lib(), tiny_grid());

  const std::string a = serial.metrics.to_json(MetricsSnapshot::kNoRuntime);
  const std::string b = parallel.metrics.to_json(MetricsSnapshot::kNoRuntime);
  EXPECT_EQ(a, b);
  // The merge actually picked up the per-layer counters.
  for (const char* name :
       {"atpg.sim.faults_graded", "atpg.podem.calls", "flow.stages_run",
        "placement.global_iterations", "routing.net_length_um", "sta.runs",
        "sim.good_sweeps", "designdb.view_hits", "designdb.rebuilds"}) {
    EXPECT_NE(serial.metrics.find(name), nullptr) << name;
    EXPECT_NE(a.find(name), std::string::npos) << name;
  }
  // Runtime ("rt.*") metrics never leak into the deterministic serialisation.
  EXPECT_EQ(a.find("\"rt."), std::string::npos);
  // Histogram summaries (quantiles are pure functions of the pow2 buckets,
  // so they inherit the bit-identity the EXPECT_EQ above just proved).
  for (const char* field : {"\"mean\": ", "\"p50\": ", "\"p95\": ", "\"p99\": "}) {
    EXPECT_NE(a.find(field), std::string::npos) << field;
  }
  const MetricValue* net_len = serial.metrics.find("routing.net_length_um");
  ASSERT_NE(net_len, nullptr);
  ASSERT_EQ(net_len->kind, MetricKind::kHistogram);
  EXPECT_LE(net_len->hist.quantile(0.50), net_len->hist.quantile(0.95));
  EXPECT_LE(net_len->hist.quantile(0.95), net_len->hist.quantile(0.99));
}

// Trace-file names must be injective in the label: the old '/'-to-'_'
// mapping sent "s38417/tp=2" and "s38417_tp=2" to the same file, silently
// clobbering one cell's trace with the other's.
TEST(SweepRunnerTest, SanitizeTraceLabelIsCollisionFree) {
  EXPECT_EQ(sanitize_trace_label("s38417/tp=2"), "s38417_2ftp=2");
  EXPECT_EQ(sanitize_trace_label("s38417_tp=2"), "s38417_5ftp=2");
  EXPECT_NE(sanitize_trace_label("s38417/tp=2"), sanitize_trace_label("s38417_tp=2"));
  EXPECT_NE(sanitize_trace_label("a b"), sanitize_trace_label("a/b"));
  EXPECT_NE(sanitize_trace_label("a b"), sanitize_trace_label("a_b"));
  // Safe characters pass through verbatim; escapes are lowercase hex.
  EXPECT_EQ(sanitize_trace_label("tiny.tp=0-v2"), "tiny.tp=0-v2");
  EXPECT_EQ(sanitize_trace_label("soc=8/tam=32/tp=1"), "soc=8_2ftam=32_2ftp=1");
}

// Per-cell flight recorders + the run ledger: every sweep cell writes its
// own Chrome trace under SweepOptions::trace_dir and appends one ledger
// line, in submission order, with a deterministic flow payload.
TEST(SweepRunnerTest, TraceDirAndLedgerRecordEveryCell) {
  const std::string trace_dir = ::testing::TempDir() + "tpi_sweep_traces";
  const std::string ledger_path = ::testing::TempDir() + "tpi_sweep_ledger.jsonl";
  std::remove(ledger_path.c_str());

  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  opts.trace_dir = trace_dir;
  opts.ledger = ledger_path;
  // Distinct profile names: trace file names derive from the cell label,
  // so same-named profiles would share (and clobber) one file.
  CircuitProfile pa = test::tiny_profile(31);
  pa.name = "tinyA";
  CircuitProfile pb = test::tiny_profile(32);
  pb.name = "tinyB";
  const auto jobs =
      SweepRunner::grid({pa, pb}, {0.0, 2.0, 5.0}, FlowOptions{}, StageMask::all());
  SweepRunner(opts).run(lib(), jobs);

  for (const SweepJob& job : jobs) {
    // "tinyA/tp=0" -> "tinyA_2ftp=0.trace.json" (sanitize_trace_label).
    const std::string path =
        trace_dir + "/" + sanitize_trace_label(job.label) + ".trace.json";
    const std::string contents = test::read_text_file(path);
    ASSERT_FALSE(contents.empty()) << path;
    std::remove(path.c_str());
    std::string error;
    EXPECT_TRUE(json_well_formed(contents, &error)) << path << ": " << error;
    EXPECT_NE(contents.find("tpi_scan"), std::string::npos) << path;
    EXPECT_NE(contents.find(job.label), std::string::npos) << path;  // process row
  }

  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), jobs.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].schema, kLedgerSchemaVersion);
    EXPECT_EQ(entries[i].label, jobs[i].label);  // submission order, not finish
    EXPECT_NE(entries[i].flow.find("num_cells"), nullptr);
    EXPECT_NE(entries[i].flow.find("metrics"), nullptr);
    // The ledger records the deterministic snapshot only.
    EXPECT_EQ(entries[i].flow.serialise().find("\"rt."), std::string::npos);
  }

  // Re-running serially appends flow payloads byte-identical to the
  // parallel run's — the property bench_compare.py --ledger leans on.
  SweepOptions serial = opts;
  serial.jobs = 1;
  serial.trace_dir.clear();
  SweepRunner(serial).run(lib(), jobs);
  const std::vector<LedgerEntry> again = Ledger::read_file(ledger_path);
  ASSERT_EQ(again.size(), 2 * jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(again[i].config_fp, again[i + jobs.size()].config_fp);
    EXPECT_EQ(again[i].flow.serialise(), again[i + jobs.size()].flow.serialise());
  }
  std::remove(ledger_path.c_str());
  ::rmdir(trace_dir.c_str());
}

// A grid built from a scaled FlowConfig records that scale in every
// ledger line, so a scaled cell never shares a fingerprint with the
// full-size cell of the same label.
TEST(SweepRunnerTest, LedgerRecordsTheGridScale) {
  const std::string ledger_path = ::testing::TempDir() + "tpi_sweep_scale_ledger.jsonl";
  std::remove(ledger_path.c_str());
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.ledger = ledger_path;
  FlowConfig config;
  config.scale = 0.5;
  config.stages = StageMask::all().without(Stage::kReorderAtpg).without(Stage::kSta);
  SweepRunner(opts).run(lib(), SweepRunner::grid({test::tiny_profile(35)}, {0.0, 2.0}, config));
  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), 2u);
  for (const LedgerEntry& e : entries) {
    EXPECT_NE(e.config.serialise().find("\"scale\":0.5"), std::string::npos) << e.label;
  }
  std::remove(ledger_path.c_str());
}

TEST(SweepRunnerTest, ReportAggregatesStageTotals) {
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  const SweepReport report = SweepRunner(opts).run(lib(), tiny_grid());

  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GE(report.cpu_ms, report.wall_ms * 0.5);  // sanity, not a perf claim
  double sum = 0.0;
  for (const double ms : report.stage_total_ms) sum += ms;
  EXPECT_GT(sum, 0.0);
  // Stage totals are the sum of the per-cell stage timings.
  double cell_sum = 0.0;
  for (const auto& cell : report.cells) cell_sum += cell.result.timings.total_ms();
  EXPECT_NEAR(sum, cell_sum, 1e-6);
}

TEST(SweepRunnerTest, JsonReportContainsCellsAndStageTotals) {
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  FlowOptions base;
  const auto jobs =
      SweepRunner::grid({test::tiny_profile(33)}, {2.0}, base,
                        StageMask::all().without(Stage::kReorderAtpg));
  const SweepReport report = SweepRunner(opts).run(lib(), jobs);
  const std::string json = report.to_json();

  EXPECT_NE(json.find("\"context\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"tiny/tp=2\""), std::string::npos);
  EXPECT_NE(json.find("\"real_time\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  for (const Stage s : kAllStages) {
    EXPECT_NE(json.find(std::string("\"stage_totals/") + stage_name(s) + "\""),
              std::string::npos)
        << stage_name(s);
  }
}

TEST(SweepRunnerTest, HonoursPerJobStageMask) {
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  FlowOptions base;
  auto jobs = SweepRunner::grid({test::tiny_profile(34)}, {0.0, 2.0}, base,
                                StageMask::all().without(Stage::kSta).without(
                                    Stage::kExtract));
  const SweepReport report = SweepRunner(opts).run(lib(), std::move(jobs));
  for (const auto& cell : report.cells) {
    EXPECT_FALSE(cell.result.sta.worst.valid) << cell.job.label;
    EXPECT_FALSE(cell.result.timings.stage_ran(Stage::kSta));
    EXPECT_TRUE(cell.result.timings.stage_ran(Stage::kEco));
    EXPECT_GT(cell.result.saf_patterns, 0) << cell.job.label;
  }
  EXPECT_DOUBLE_EQ(report.stage_total_ms[static_cast<int>(Stage::kSta)], 0.0);
}

}  // namespace
}  // namespace tpi
