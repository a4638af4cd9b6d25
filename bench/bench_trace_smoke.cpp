// End-to-end smoke check of the observability layer, run under ctest with
// TPI_TRACE set: executes one scaled-down flow with parallel fault
// simulation enabled, writes the Chrome trace JSON, then re-reads and
// validates it — well-formed JSON, complete "X" events, one span per flow
// stage, the kernel span names present — and checks the
// FlowResult metrics snapshot carries the expected counters. A second
// section runs 4 concurrent flows, each under its own per-job TraceSink,
// and asserts every sink's JSON carries only its own job's spans (the
// concurrent-trace-clobbering regression check; the TSan build makes it a
// data-race check too). Exits non-zero on the first failed check so the
// ctest target fails loudly.
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "util/json_check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "[trace_smoke] FAIL: %s\n", what);
  ++g_failures;
}

std::string read_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

int main() {
  using namespace tpi;
  set_log_level(FlowConfig::from_env().log_level);

  // Under ctest TPI_TRACE points at trace_smoke.json; standalone runs get
  // the same behaviour with an explicit enable + write below.
  const char* env_path = trace_init_from_env();
  const std::string path = env_path != nullptr ? env_path : "trace_smoke.json";
  if (env_path == nullptr) set_trace_enabled(true);

  FlowOptions opts;
  opts.tp_percent = 2.0;
  opts.atpg.jobs = 2;  // fault-sim workers: spans must appear off-main-thread
  const CircuitProfile profile = scaled(s38417_profile(), 0.05);
  const std::unique_ptr<CellLibrary> lib = make_phl130_library();

  FlowEngine engine(*lib, profile, opts);
  const FlowResult& res = engine.run();

  check(trace_event_count() > 0, "spans were recorded");
  check(!res.metrics.empty(), "FlowResult carries a metrics snapshot");
  check(res.metrics.find("atpg.sim.faults_graded") != nullptr,
        "atpg.sim.faults_graded metric present");
  check(res.metrics.find("routing.net_length_um") != nullptr,
        "routing.net_length_um histogram present");

  check(trace_write_json(path), "trace JSON written");
  const std::string json = read_file(path);
  check(!json.empty(), "trace file readable and non-empty");
  std::string error;
  if (!json_well_formed(json, &error)) {
    std::fprintf(stderr, "[trace_smoke] FAIL: malformed JSON: %s\n", error.c_str());
    ++g_failures;
  }
  check(contains(json, "\"traceEvents\""), "traceEvents array present");
  check(contains(json, "\"ph\": \"X\""), "complete (\"X\") events present");
  // run_stage opens one span named after each stage.
  for (const Stage s : kAllStages) {
    if (!StageMask::all().has(s)) continue;
    const std::string span = std::string("\"name\": \"") + stage_name(s) + "\"";
    if (!contains(json, span.c_str())) {
      std::fprintf(stderr, "[trace_smoke] FAIL: stage span \"%s\" missing from trace\n",
                   stage_name(s));
      ++g_failures;
    }
  }
  for (const char* name : {"tpi.views", "tpi.rank", "scan.insert", "atpg.podem",
                           "atpg.grade_chunk", "placement.global", "routing.route"}) {
    if (!contains(json, name)) {
      std::fprintf(stderr, "[trace_smoke] FAIL: span \"%s\" missing from trace\n", name);
      ++g_failures;
    }
  }

  // ---- per-job flight recorders: 4 concurrent traced flows ----
  // Each job runs under its own ScopedTraceSink; before the fix every
  // traced job interleaved into the one global TPI_TRACE log.
  {
    constexpr int kJobs = 4;
    static const char* kMarkers[kJobs] = {"marker.job0", "marker.job1",
                                          "marker.job2", "marker.job3"};
    std::vector<std::unique_ptr<TraceSink>> sinks;
    for (int j = 0; j < kJobs; ++j) {
      sinks.push_back(std::make_unique<TraceSink>(
          static_cast<std::uint64_t>(j + 1), "job" + std::to_string(j)));
    }
    const CircuitProfile small = scaled(s38417_profile(), 0.02);
    {
      ThreadPool pool(kJobs);
      std::vector<std::future<void>> done;
      for (int j = 0; j < kJobs; ++j) {
        done.push_back(pool.submit([&, j] {
          ScopedTraceSink scope(*sinks[static_cast<std::size_t>(j)]);
          trace_instant(kMarkers[j]);
          FlowOptions o = opts;
          o.atpg.jobs = 1;  // inner-pool spans would land in the process sink
          FlowEngine e(*lib, small, o);
          e.run();
        }));
      }
      for (std::future<void>& f : done) f.get();
    }
    for (int j = 0; j < kJobs; ++j) {
      const TraceSink& sink = *sinks[static_cast<std::size_t>(j)];
      check(sink.event_count() > 0, "per-job sink captured spans");
      const std::string sink_json = sink.to_json();
      std::string sink_error;
      if (!json_well_formed(sink_json, &sink_error)) {
        std::fprintf(stderr, "[trace_smoke] FAIL: job %d sink JSON malformed: %s\n",
                     j, sink_error.c_str());
        ++g_failures;
      }
      check(contains(sink_json, "\"process_name\""), "sink has a process_name row");
      check(contains(sink_json, "tpi_scan"), "sink has the job's stage spans");
      for (int other = 0; other < kJobs; ++other) {
        const bool expect = other == j;
        if (contains(sink_json, kMarkers[other]) != expect) {
          std::fprintf(stderr,
                       "[trace_smoke] FAIL: job %d sink %s marker of job %d\n", j,
                       expect ? "is missing the" : "leaked the", other);
          ++g_failures;
        }
      }
    }
  }

  if (g_failures == 0) {
    std::fprintf(stderr, "[trace_smoke] OK: %zu events in %s\n", trace_event_count(),
                 path.c_str());
    return 0;
  }
  std::fprintf(stderr, "[trace_smoke] %d check(s) failed\n", g_failures);
  return 1;
}
