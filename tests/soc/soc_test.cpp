// SOC composer end-to-end: chip composition, bit-identical results at any
// core-flow job count, the SOC sweep grid, and an 8-core
// chip job through the flow server with its ledger line.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../common/test_circuits.hpp"
#include "flow/flow_config.hpp"
#include "server/flow_server.hpp"
#include "soc/soc.hpp"
#include "soc/soc_sweep.hpp"
#include "util/json.hpp"
#include "util/json_check.hpp"
#include "util/ledger.hpp"

namespace tpi {
namespace {

using test::lib;

/// Chip small enough for unit tests: scaled-down paper cores, one ATPG job
/// per core (the SOC layer parallelises across cores instead).
FlowConfig tiny_soc(int cores, int tam_width) {
  FlowConfig cfg;
  cfg.soc.cores = cores;
  cfg.soc.tam_width = tam_width;
  cfg.scale = 0.02;
  cfg.options.tp_percent = 1.0;
  cfg.options.atpg.jobs = 1;
  return cfg;
}

TEST(SocCoreSpecsTest, CyclesProfilesDownTheSizeLadder) {
  const auto specs = soc_core_specs(10, 1.0);
  ASSERT_EQ(specs.size(), 10u);
  EXPECT_EQ(specs[0].label, "core0:s38417");
  EXPECT_EQ(specs[1].label, "core1:circuit1");
  EXPECT_EQ(specs[2].label, "core2:p26909");
  EXPECT_EQ(specs[3].label, "core3:s38417");
  // Names stay the paper's (no "_x<f>" suffix from scaled()).
  for (const SocCoreSpec& s : specs) {
    EXPECT_EQ(s.profile.name.find("_x"), std::string::npos) << s.label;
  }
  // Cores 3..5 ride the 0.7 rung: strictly smaller than their 1.0 twins.
  EXPECT_LT(specs[3].profile.num_ffs, specs[0].profile.num_ffs);
  // Core 9 wraps back to the 1.0 rung of s38417: an exact repeat of core 0,
  // which is what makes the DesignCache pay off (<= 9 distinct designs).
  EXPECT_EQ(specs[9].profile.num_ffs, specs[0].profile.num_ffs);
  EXPECT_EQ(specs[9].profile.seed, specs[0].profile.seed);
}

// Acceptance criterion: the chip-level result (including the scheduled
// TAT) is byte-identical whether the core flows ran serially or on four
// workers.
TEST(SocRunnerTest, ResultBitIdenticalAcrossJobCounts) {
  FlowConfig opts = tiny_soc(4, 16);
  opts.bench_jobs = 1;
  const std::string reference = soc_result_to_json(SocRunner(opts).run(lib()));
  EXPECT_NE(reference.find("\"chip_tat_cycles\""), std::string::npos);
  EXPECT_NE(reference.find("\"soc.chip_tat_cycles\""), std::string::npos);

  opts.bench_jobs = 4;
  EXPECT_EQ(soc_result_to_json(SocRunner(opts).run(lib())), reference);
}

TEST(SocRunnerTest, ScheduleBeatsSerialAndCoversEveryCore) {
  FlowConfig opts = tiny_soc(5, 8);
  opts.bench_jobs = 2;
  const SocResult res = SocRunner(opts).run(lib());
  ASSERT_EQ(res.per_core.size(), 5u);
  EXPECT_GT(res.chip_tat_cycles, 0);
  EXPECT_LE(res.chip_tat_cycles, res.serial_tat_cycles);
  EXPECT_GT(res.tam_utilization_pct, 0.0);
  for (const SocCoreResult& core : res.per_core) {
    SCOPED_TRACE(core.label);
    EXPECT_GT(core.envelope.patterns, 0);
    EXPECT_GT(core.test_cycles, 0);
    EXPECT_GE(core.tam_start, 0);
    EXPECT_LE(core.tam_start + core.width, res.tam_width);
    EXPECT_LE(core.finish_cycle, res.chip_tat_cycles);
    EXPECT_GT(core.flow.num_cells, 0);
  }
  // The merged snapshot carries both per-core flow metrics and the chip
  // metrics the Prometheus exposition and the ledger surface.
  EXPECT_NE(res.metrics.find("flow.stages_run"), nullptr);
  const MetricValue* tat = res.metrics.find("soc.chip_tat_cycles");
  ASSERT_NE(tat, nullptr);
  EXPECT_DOUBLE_EQ(tat->value, static_cast<double>(res.chip_tat_cycles));
}

TEST(SocSweepTest, GridEnumeratesCoresMajorWithLabels) {
  FlowConfig cfg;
  const auto jobs = SocSweepRunner::grid({2, 4}, {8, 16}, {0.0, 1.0}, cfg);
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].label, "soc=2/tam=8/tp=0");
  EXPECT_EQ(jobs[1].label, "soc=2/tam=8/tp=1");
  EXPECT_EQ(jobs[2].label, "soc=2/tam=16/tp=0");
  EXPECT_EQ(jobs[7].label, "soc=4/tam=16/tp=1");
  EXPECT_EQ(jobs[7].config.soc.cores, 4);
  EXPECT_EQ(jobs[7].config.soc.tam_width, 16);
  EXPECT_DOUBLE_EQ(jobs[7].config.options.tp_percent, 1.0);
}

// The SOC sweep analogue of the single-core bit-identity sweep test: the
// per-cell deterministic payloads (and the ledger lines they feed) agree
// byte-for-byte between a serial and a parallel run. The parallel run also
// writes one trace file per cell.
TEST(SocSweepTest, CellsBitIdenticalAcrossJobCountsWithLedger) {
  const std::string ledger_path = ::testing::TempDir() + "tpi_soc_ledger.jsonl";
  std::remove(ledger_path.c_str());

  FlowConfig cfg;
  cfg.scale = 0.02;
  cfg.options.atpg.jobs = 1;
  const auto jobs = SocSweepRunner::grid({2, 3}, {8}, {0.0, 1.0}, cfg);

  SweepOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  serial.ledger = ledger_path;
  const SocSweepReport a = SocSweepRunner(serial).run(lib(), jobs);

  SweepOptions parallel;
  parallel.jobs = 4;
  parallel.progress = false;
  parallel.ledger = ledger_path;
  parallel.trace_dir = ::testing::TempDir() + "tpi_soc_traces";
  const SocSweepReport b = SocSweepRunner(parallel).run(lib(), jobs);
  for (const SocSweepJob& job : jobs) {
    const std::string path =
        parallel.trace_dir + "/" + sanitize_trace_label(job.label) + ".trace.json";
    const JsonParseResult trace = json_parse(test::read_text_file(path));
    ASSERT_TRUE(trace.ok) << path << ": " << trace.error;
    EXPECT_NE(trace.value.serialise().find(job.label), std::string::npos) << path;
    std::remove(path.c_str());
  }
  ::rmdir(parallel.trace_dir.c_str());

  ASSERT_EQ(a.cells.size(), jobs.size());
  ASSERT_EQ(b.cells.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    EXPECT_EQ(soc_result_to_json(a.cells[i].result),
              soc_result_to_json(b.cells[i].result));
  }
  EXPECT_EQ(a.metrics.to_json(MetricsSnapshot::kNoRuntime),
            b.metrics.to_json(MetricsSnapshot::kNoRuntime));
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"name\": \"soc=2/tam=8/tp=0\""), std::string::npos);
  EXPECT_NE(json.find("\"chip_tat_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"serial_tat_cycles\""), std::string::npos);

  // Both sweeps appended one line per cell; matching cells have matching
  // config fingerprints and byte-identical SOC payloads.
  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), 2 * jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(entries[i].label, jobs[i].label);
    EXPECT_EQ(entries[i].config_fp, entries[i + jobs.size()].config_fp);
    EXPECT_EQ(entries[i].flow.serialise(), entries[i + jobs.size()].flow.serialise());
    EXPECT_NE(entries[i].flow.find("chip_tat_cycles"), nullptr);
  }
  // A cell's ledger config is the grid config with the cell's own soc axes
  // and TP %, pinned byte for byte.
  EXPECT_EQ(entries[1].config.serialise(),
            "{\"profile\":\"s38417\",\"scale\":0.02,\"tp_percent\":1,"
            "\"tpi_method\":\"hybrid\",\"seed\":\"61711\",\"stages\":\"all\","
            "\"atpg_jobs\":1,\"priority\":0,"
            "\"soc\":{\"cores\":2,\"tam_width\":8,\"schedule\":\"diagonal\"}}");
  std::remove(ledger_path.c_str());
}

// A traced sweep cell hands its cores to the sweep's pool; each core task
// scopes the cell's sink, so the cell's trace file holds every core's
// stage spans.
TEST(SocSweepTest, TracedCellKeepsPerCoreSpans) {
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  opts.trace_dir = ::testing::TempDir() + "tpi_soc_core_traces";
  const auto jobs = SocSweepRunner::grid({4}, {8}, {1.0}, tiny_soc(4, 8));
  ASSERT_EQ(jobs.size(), 1u);
  const SocSweepReport report = SocSweepRunner(opts).run(lib(), jobs);
  ASSERT_EQ(report.cells.size(), 1u);

  const std::string path =
      opts.trace_dir + "/" + sanitize_trace_label(jobs[0].label) + ".trace.json";
  const JsonParseResult trace = json_parse(test::read_text_file(path));
  ASSERT_TRUE(trace.ok) << path << ": " << trace.error;
  const std::string serialised = trace.value.serialise();
  const std::string needle = "\"name\":\"tpi_scan\"";
  int tpi_scan_spans = 0;
  for (std::size_t at = serialised.find(needle); at != std::string::npos;
       at = serialised.find(needle, at + needle.size())) {
    ++tpi_scan_spans;
  }
  EXPECT_GE(tpi_scan_spans, 4);
  std::remove(path.c_str());
  ::rmdir(opts.trace_dir.c_str());
}

// A caller-set label is escaped in the report JSON, as SweepReport does.
TEST(SocSweepTest, ReportJsonEscapesLabels) {
  SocSweepReport report;
  SocSweepCellResult cell;
  cell.job.label = "chip \"A\" \\ v2";
  report.cells.push_back(cell);
  const std::string json = report.to_json();
  std::string error;
  EXPECT_TRUE(json_well_formed(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"name\": \"chip \\\"A\\\" \\\\ v2\""), std::string::npos) << json;
}

// Acceptance criterion: an 8-core SOC job completes end-to-end through the
// flow server, with the chip payload in the result RPC and in the ledger.
TEST(SocServerTest, EightCoreJobThroughFlowServerWithLedger) {
  const std::string ledger_path = ::testing::TempDir() + "tpi_soc_server_ledger.jsonl";
  std::remove(ledger_path.c_str());

  FlowConfig base;
  base.scale = 0.02;
  base.options.atpg.jobs = 1;
  base.bench_jobs = 2;
  base.ledger = ledger_path;
  FlowServerOptions opts;
  opts.workers = 2;
  FlowServer server(base, opts);

  const std::string submit_req =
      "{\"id\": 1, \"method\": \"submit\", \"params\": "
      "{\"tp_percent\": 1.0, \"soc\": {\"cores\": 8, \"tam_width\": 16}}}";
  const JsonParseResult submit = json_parse(server.handle_request(submit_req));
  ASSERT_TRUE(submit.ok) << submit.error;
  ASSERT_EQ(submit.value.find("error"), nullptr) << server.handle_request(submit_req);
  const std::uint64_t job = static_cast<std::uint64_t>(
      submit.value.find("result")->find("job")->as_number());

  const JsonParseResult done = json_parse(server.handle_request(
      "{\"id\": 2, \"method\": \"result\", \"params\": {\"job\": " +
      std::to_string(job) + ", \"wait\": true}}"));
  ASSERT_TRUE(done.ok) << done.error;
  const JsonValue* result = done.value.find("result");
  ASSERT_NE(result, nullptr) << done.value.serialise();
  EXPECT_EQ(result->find("state")->as_string(), "done");
  const JsonValue* flow = result->find("flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->find("cores")->as_int(), 8);
  EXPECT_EQ(flow->find("tam_width")->as_int(), 16);
  EXPECT_GT(flow->find("chip_tat_cycles")->as_int(), 0);
  ASSERT_NE(flow->find("per_core"), nullptr);
  EXPECT_EQ(flow->find("per_core")->as_array().size(), 8u);

  // Prometheus exposition picked up the server-side SOC metrics.
  const JsonParseResult metrics = json_parse(server.handle_request(
      "{\"id\": 3, \"method\": \"metrics\", \"params\": {}}"));
  ASSERT_TRUE(metrics.ok);
  const std::string prom =
      metrics.value.find("result")->find("prometheus")->as_string();
  EXPECT_NE(prom.find("tpi_server_soc_jobs_done"), std::string::npos);
  EXPECT_NE(prom.find("tpi_server_soc_chip_tat_cycles"), std::string::npos);

  server.stop();
  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].label, "soc=8/tam=16/tp=1");
  EXPECT_NE(entries[0].flow.find("chip_tat_cycles"), nullptr);
  EXPECT_NE(entries[0].config.find("soc"), nullptr);
  std::remove(ledger_path.c_str());
}

// The "profile" key is ignored for SOC jobs: a submission whose base
// profile would not resolve must still be admitted when soc.cores > 0.
TEST(SocServerTest, SubmitSkipsProfileResolutionForSocJobs) {
  FlowConfig base;
  base.scale = 0.02;
  FlowServerOptions opts;
  opts.workers = 1;
  FlowServer server(base, opts);
  const JsonParseResult bad = json_parse(server.handle_request(
      "{\"id\": 1, \"method\": \"submit\", \"params\": {\"profile\": \"nope\"}}"));
  ASSERT_TRUE(bad.ok);
  EXPECT_NE(bad.value.find("error"), nullptr);
  const JsonParseResult soc = json_parse(server.handle_request(
      "{\"id\": 1, \"method\": \"submit\", \"params\": {\"profile\": \"nope\", "
      "\"soc\": {\"cores\": 1, \"tam_width\": 4}}}"));
  ASSERT_TRUE(soc.ok);
  EXPECT_EQ(soc.value.find("error"), nullptr) << soc.value.serialise();
  server.stop();
}

}  // namespace
}  // namespace tpi
