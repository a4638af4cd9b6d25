// Flow-server job lifecycle, scheduling and cache semantics, driven
// through the transport-free handle_request() core (the AF_UNIX front end
// gets one round-trip test; the forked-daemon path is the server_smoke
// load test in bench/). The soak test is the acceptance criterion: results
// byte-identical to single-shot FlowEngine runs at any concurrency.
#include "server/flow_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_circuits.hpp"
#include "server/client.hpp"
#include "circuits/design_cache.hpp"
#include "util/json.hpp"
#include "util/ledger.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Small but full-flow config: scaled s38417 keeps every stage meaningful
// while a single job stays in the tens of milliseconds.
FlowConfig tiny_base() {
  FlowConfig base;
  base.profile = "s38417";
  base.scale = 0.01;
  base.options.atpg.jobs = 1;
  return base;
}

JsonValue parse_response(const std::string& line) {
  const JsonParseResult r = json_parse(line);
  EXPECT_TRUE(r.ok) << r.error << " in " << line;
  EXPECT_TRUE(r.value.is_object()) << line;
  return r.value;
}

// The "result" payload of a successful response; fails the test on error
// responses.
JsonValue rpc_result(FlowServer& server, const std::string& request) {
  const JsonValue resp = parse_response(server.handle_request(request));
  const JsonValue* err = resp.find("error");
  EXPECT_EQ(err, nullptr) << (err != nullptr ? err->as_string() : "")
                          << " for " << request;
  const JsonValue* result = resp.find("result");
  EXPECT_NE(result, nullptr) << request;
  return result != nullptr ? *result : JsonValue{};
}

std::uint64_t submit(FlowServer& server, const std::string& params) {
  const JsonValue result = rpc_result(
      server, "{\"id\": 1, \"method\": \"submit\", \"params\": " + params + "}");
  const JsonValue* job = result.find("job");
  EXPECT_NE(job, nullptr);
  EXPECT_EQ(result.find("state")->as_string(), "queued");
  return job != nullptr ? static_cast<std::uint64_t>(job->as_number()) : 0;
}

// Blocking result RPC; returns the result payload.
JsonValue wait_result(FlowServer& server, std::uint64_t job) {
  return rpc_result(server, "{\"id\": 2, \"method\": \"result\", \"params\": {\"job\": " +
                                std::to_string(job) + ", \"wait\": true}}");
}

TEST(FlowServerTest, SubmitStatusResultDone) {
  FlowServerOptions opts;
  opts.workers = 2;
  FlowServer server(tiny_base(), opts);

  // 10% of the scaled-down FF count still rounds to a real test point.
  const std::uint64_t job = submit(server, "{\"tp_percent\": 10.0}");
  ASSERT_GT(job, 0u);

  const JsonValue status = rpc_result(
      server, "{\"id\": 9, \"method\": \"status\", \"params\": {\"job\": " +
                  std::to_string(job) + "}}");
  const std::string state = status.find("state")->as_string();
  EXPECT_TRUE(state == "queued" || state == "running" || state == "done") << state;

  const JsonValue result = wait_result(server, job);
  EXPECT_EQ(result.find("state")->as_string(), "done");
  EXPECT_GE(result.find("queue_wait_ns")->as_number(), 0.0);
  const JsonValue* flow = result.find("flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->find("num_cells")->as_number(), 0.0);
  EXPECT_GT(flow->find("num_test_points")->as_number(), 0.0);
  EXPECT_TRUE(flow->find("sta_valid")->as_bool());
  ASSERT_NE(flow->find("metrics"), nullptr);
  // designdb.* counters are excluded from the bit-identity surface.
  EXPECT_EQ(flow->serialise().find("designdb."), std::string::npos);
}

// Acceptance criterion: N concurrent clients x M jobs produce results
// byte-identical to single-shot FlowEngine runs of the same configs, with
// cache hits after the first encounter of each profile.
TEST(FlowServerTest, SoakResultsBitIdenticalToSingleShot) {
  const std::vector<std::string> params = {
      "{\"profile\": \"s38417\", \"tp_percent\": 0.0}",
      "{\"profile\": \"s38417\", \"tp_percent\": 2.0}",
      "{\"profile\": \"s38417\", \"tp_percent\": 4.0}",
      "{\"profile\": \"circuit1\", \"tp_percent\": 0.0}",
      "{\"profile\": \"circuit1\", \"tp_percent\": 2.0}",
      "{\"profile\": \"circuit1\", \"tp_percent\": 4.0}",
  };

  // Single-shot references, canonicalised through the same parse +
  // serialise as the RPC path so the comparison is byte-for-byte.
  const FlowConfig base = tiny_base();
  std::vector<std::string> expected;
  for (const std::string& p : params) {
    FlowConfig cfg;
    std::string error;
    ASSERT_TRUE(FlowConfig::from_json(p, base, cfg, &error)) << error;
    CircuitProfile profile;
    ASSERT_TRUE(cfg.resolve_profile(profile, &error)) << error;
    FlowEngine engine(test::lib(), profile, cfg.options);
    const std::string json = flow_result_to_json(engine.run(cfg.stages));
    const JsonParseResult parsed = json_parse(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    expected.push_back(parsed.value.serialise());
  }

  FlowServerOptions opts;
  opts.workers = 4;
  FlowServer server(tiny_base(), opts);

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 20;
  std::vector<std::string> mismatches;
  std::mutex mismatches_mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const std::size_t which = (c * kJobsPerClient + j) % params.size();
        const std::uint64_t job = submit(server, params[which]);
        const JsonValue result = wait_result(server, job);
        const JsonValue* flow = result.find("flow");
        const std::string got = flow != nullptr ? flow->serialise() : "<missing>";
        if (result.find("state")->as_string() != "done" || got != expected[which]) {
          std::lock_guard<std::mutex> lock(mismatches_mu);
          mismatches.push_back(params[which] + ": " + got);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches, first: " << mismatches.front();

  // Two distinct (profile, seed, library) keys across 80 jobs: the cache
  // built each at most once (dedup may count concurrent first requests as
  // hits) and served everything else warm.
  const DesignCache::Stats cs = server.cache_stats();
  EXPECT_LE(cs.misses, 2u);
  EXPECT_GE(cs.hits, static_cast<std::uint64_t>(kClients * kJobsPerClient) - 2);
  EXPECT_EQ(cs.evictions, 0u);

  // Every job's queue wait was observed into the server's registry.
  const MetricsSnapshot snap = server.metrics_snapshot();
  const MetricValue* wait = snap.find("server.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->hist.count, static_cast<std::uint64_t>(kClients * kJobsPerClient));

  const JsonValue stats = rpc_result(server, "{\"id\": 3, \"method\": \"stats\"}");
  EXPECT_EQ(stats.find("jobs")->find("submitted")->as_number(),
            static_cast<double>(kClients * kJobsPerClient));
  EXPECT_EQ(stats.find("jobs")->find("done")->as_number(),
            static_cast<double>(kClients * kJobsPerClient));
  EXPECT_EQ(stats.find("server.cache.hits")->as_number(),
            static_cast<double>(cs.hits));
}

// A gate for deterministic scheduling tests: blocks the first job that
// starts until release(), and records every job the pool actually ran.
class StartGate {
 public:
  std::function<void(std::uint64_t)> hook() {
    return [this](std::uint64_t id) {
      std::unique_lock<std::mutex> lock(mu_);
      started_.push_back(id);
      cv_.notify_all();
      if (started_.size() == 1) {
        cv_.wait(lock, [&] { return released_; });
      }
    };
  }
  void wait_first_started() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !started_.empty(); });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<std::uint64_t> started() {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint64_t> started_;
  bool released_ = false;
};

TEST(FlowServerTest, PriorityOrderingUnderSaturatedPool) {
  StartGate gate;
  FlowServerOptions opts;
  opts.workers = 1;
  opts.on_job_start = gate.hook();
  FlowServer server(tiny_base(), opts);

  // First job occupies the single worker at the gate; the rest queue up.
  const std::uint64_t blocker = submit(server, "{\"tp_percent\": 0.0}");
  gate.wait_first_started();
  const std::uint64_t low = submit(server, "{\"tp_percent\": 0.0, \"priority\": 0}");
  const std::uint64_t high = submit(server, "{\"tp_percent\": 0.0, \"priority\": 5}");
  const std::uint64_t mid = submit(server, "{\"tp_percent\": 0.0, \"priority\": 1}");
  gate.release();

  for (const std::uint64_t job : {blocker, low, high, mid}) {
    EXPECT_EQ(wait_result(server, job).find("state")->as_string(), "done");
  }
  const std::vector<std::uint64_t> order = gate.started();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], high);  // priority 5 jumps the queue
  EXPECT_EQ(order[2], mid);   // then 1
  EXPECT_EQ(order[3], low);   // then 0 (FIFO would have run it first)
}

TEST(FlowServerTest, CancelQueuedJobNeverRuns) {
  StartGate gate;
  FlowServerOptions opts;
  opts.workers = 1;
  opts.on_job_start = gate.hook();
  FlowServer server(tiny_base(), opts);

  const std::uint64_t blocker = submit(server, "{\"tp_percent\": 0.0}");
  gate.wait_first_started();
  const std::uint64_t victim = submit(server, "{\"tp_percent\": 0.0}");
  const JsonValue cancel = rpc_result(
      server, "{\"id\": 4, \"method\": \"cancel\", \"params\": {\"job\": " +
                  std::to_string(victim) + "}}");
  EXPECT_TRUE(cancel.find("cancel_requested")->as_bool());
  gate.release();

  const JsonValue result = wait_result(server, victim);
  EXPECT_EQ(result.find("state")->as_string(), "cancelled");
  EXPECT_EQ(result.find("flow"), nullptr);  // no flow ever ran
  EXPECT_EQ(wait_result(server, blocker).find("state")->as_string(), "done");
  // A job cancelled while queued never reaches the start hook.
  for (const std::uint64_t id : gate.started()) EXPECT_NE(id, victim);
}

// Admission control: with max_queue_depth set, a submit that would push
// the pool's backlog past the bound comes back immediately as a
// structured "queue_full" error (with the observed depth and the limit)
// instead of queueing unboundedly — and never creates a job.
TEST(FlowServerTest, SubmitRejectedWhenQueueFull) {
  StartGate gate;
  FlowServerOptions opts;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  opts.on_job_start = gate.hook();
  FlowServer server(tiny_base(), opts);

  // The blocker occupies the single worker; one more job fills the queue.
  const std::uint64_t blocker = submit(server, "{\"tp_percent\": 0.0}");
  gate.wait_first_started();
  const std::uint64_t queued = submit(server, "{\"tp_percent\": 0.0}");

  const JsonValue resp = parse_response(server.handle_request(
      "{\"id\": 7, \"method\": \"submit\", \"params\": {\"tp_percent\": 0.0}}"));
  const JsonValue* err = resp.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->as_string(), "queue_full");
  EXPECT_EQ(resp.find("queue_depth")->as_number(), 1.0);
  EXPECT_EQ(resp.find("queue_limit")->as_number(), 1.0);

  gate.release();
  EXPECT_EQ(wait_result(server, blocker).find("state")->as_string(), "done");
  EXPECT_EQ(wait_result(server, queued).find("state")->as_string(), "done");

  // The rejected submit never became a job (and is counted as a rejection,
  // not a submission); once the queue drained, submits are accepted again.
  const JsonValue stats = rpc_result(server, "{\"id\": 8, \"method\": \"stats\"}");
  EXPECT_EQ(stats.find("jobs")->find("submitted")->as_number(), 2.0);
  const MetricsSnapshot snap = server.metrics_snapshot();
  const MetricValue* rejected = snap.find("server.jobs_rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->count, 1u);
  const std::uint64_t after = submit(server, "{\"tp_percent\": 0.0}");
  EXPECT_EQ(wait_result(server, after).find("state")->as_string(), "done");
}

// The engine-level cancellation contract the cancel RPC builds on: a token
// set between two stages stops run() at the next stage boundary, keeping
// finished stages' results.
TEST(FlowServerTest, CancelTokenStopsAtStageBoundary) {
  std::atomic<bool> cancel{false};
  FlowOptions fopts;
  fopts.tp_percent = 2.0;
  FlowEngine engine(test::lib(), test::tiny_profile(99), fopts);
  engine.set_cancel_token(&cancel);
  ASSERT_TRUE(engine.run_stage(Stage::kTpiScan));
  ASSERT_TRUE(engine.run_stage(Stage::kFloorplanPlace));
  cancel.store(true);
  const FlowResult& res = engine.run(StageMask::all());

  EXPECT_TRUE(res.cancelled);
  EXPECT_TRUE(res.timings.stage_ran(Stage::kTpiScan));
  EXPECT_TRUE(res.timings.stage_ran(Stage::kFloorplanPlace));
  EXPECT_FALSE(res.timings.stage_ran(Stage::kReorderAtpg));
  EXPECT_FALSE(res.timings.stage_ran(Stage::kEco));
  EXPECT_FALSE(res.timings.stage_ran(Stage::kSta));
  // Results of the stages that finished survive the cancellation.
  EXPECT_GT(res.num_ffs, 0);
}

TEST(DesignCacheTest, ConcurrentAcquireBuildsOnce) {
  MetricsRegistry registry;
  DesignCache cache(test::lib(), std::size_t{256} << 20, &registry);
  const CircuitProfile profile = test::tiny_profile(7);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<DesignCache::Entry>> entries(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { entries[i] = cache.acquire(profile); });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(entries[i], nullptr);
    EXPECT_EQ(entries[i], entries[0]);  // one shared build
  }
  const DesignCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
  // Counters land in the registry at event time.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("server.cache.misses")->count, 1u);
  EXPECT_EQ(snap.find("server.cache.hits")->count,
            static_cast<std::uint64_t>(kThreads) - 1);
}

TEST(DesignCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  // A 1-byte budget forces every insertion over budget; the newest entry
  // always stays, so the cache degrades to exactly one resident design.
  DesignCache cache(test::lib(), 1);
  const CircuitProfile a = test::tiny_profile(1);
  const CircuitProfile b = test::tiny_profile(2);
  ASSERT_NE(DesignCache::key_of(a, test::lib()), DesignCache::key_of(b, test::lib()));

  const auto ea = cache.acquire(a);
  const auto eb = cache.acquire(b);  // evicts a
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.acquire(a);  // rebuilt: a was evicted
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Evicted entries stay alive through their shared_ptr checkouts.
  EXPECT_GT(ea->netlist().num_cells(), 0u);
  EXPECT_GT(eb->netlist().num_cells(), 0u);
}

TEST(FlowServerTest, MetricsRpcExposesBothFormats) {
  FlowServerOptions opts;
  opts.workers = 1;
  FlowServer server(tiny_base(), opts);
  const std::uint64_t job = submit(server, "{\"tp_percent\": 2.0}");
  ASSERT_EQ(wait_result(server, job).find("state")->as_string(), "done");

  const JsonValue prom =
      rpc_result(server, "{\"id\": 5, \"method\": \"metrics\"}");  // default format
  const JsonValue* text = prom.find("prometheus");
  ASSERT_NE(text, nullptr);
  ASSERT_TRUE(text->is_string());
  const std::string& body = text->as_string();
  EXPECT_NE(body.find("# TYPE tpi_server_jobs_done counter\n"), std::string::npos);
  EXPECT_NE(body.find("tpi_server_jobs_done 1\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE tpi_server_queue_wait_ns summary\n"),
            std::string::npos);
  // Per-stage wall time observed for every stage the job ran.
  EXPECT_NE(body.find("tpi_server_stage_ms_tpi_scan{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(body.find("tpi_server_stage_ms_sta_count 1\n"), std::string::npos);

  const JsonValue as_json = rpc_result(
      server, "{\"id\": 6, \"method\": \"metrics\", \"params\": {\"format\": \"json\"}}");
  const JsonValue* metrics = as_json.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  const JsonValue* wait = metrics->find("server.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_NE(wait->find("p50"), nullptr);
  EXPECT_NE(wait->find("p99"), nullptr);
  EXPECT_NE(metrics->find("server.jobs_done"), nullptr);

  const JsonValue resp = parse_response(
      server.handle_request("{\"id\": 7, \"method\": \"metrics\", "
                            "\"params\": {\"format\": \"xml\"}}"));
  ASSERT_NE(resp.find("error"), nullptr);
}

TEST(FlowServerTest, TraceRpcReturnsOnlyThatJobsSpans) {
  FlowServerOptions opts;
  opts.workers = 2;
  FlowServer server(tiny_base(), opts);

  // Two traced jobs run concurrently on the two workers: each retrieved
  // trace must carry only its own job's spans (pid == job id). Job a also
  // spills its trace to trace_dir as job_<id>.trace.json.
  const std::string dir = ::testing::TempDir() + "tpi_server_traces";
  const std::uint64_t a =
      submit(server, "{\"tp_percent\": 2.0, \"trace_dir\": \"" + dir + "\"}");
  const std::uint64_t b =
      submit(server, "{\"tp_percent\": 4.0, \"record_trace\": true}");
  const std::uint64_t untraced = submit(server, "{\"tp_percent\": 2.0}");
  for (const std::uint64_t job : {a, b, untraced}) {
    ASSERT_EQ(wait_result(server, job).find("state")->as_string(), "done");
  }

  const auto fetch_trace = [&server](std::uint64_t job) {
    return rpc_result(server, "{\"id\": 8, \"method\": \"trace\", "
                              "\"params\": {\"job\": " +
                                  std::to_string(job) + "}}");
  };
  for (const std::uint64_t job : {a, b}) {
    const JsonValue result = fetch_trace(job);
    EXPECT_EQ(result.find("job")->as_number(), static_cast<double>(job));
    const JsonValue* trace = result.find("trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(trace->is_object());
    const JsonValue* events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    EXPECT_GT(events->as_array().size(), 0u);
    const std::string serialised = trace->serialise();
    EXPECT_NE(serialised.find("tpi_scan"), std::string::npos);
    EXPECT_NE(serialised.find("\"pid\":" + std::to_string(job)), std::string::npos);
    const std::uint64_t other = job == a ? b : a;
    EXPECT_EQ(serialised.find("\"pid\":" + std::to_string(other)),
              std::string::npos);
    if (job != a) continue;
    const std::string path = dir + "/job_" + std::to_string(a) + ".trace.json";
    const JsonParseResult file = json_parse(test::read_text_file(path));
    ASSERT_TRUE(file.ok) << path << ": " << file.error;
    EXPECT_EQ(file.value.serialise(), serialised);
    for (const Stage s : kAllStages) {
      if (!StageMask::all().has(s)) continue;
      EXPECT_NE(serialised.find(std::string("\"name\":\"") + stage_name(s) + "\""),
                std::string::npos)
          << stage_name(s);
    }
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
  }

  // No recorder attached: the RPC says how to get one.
  const JsonValue resp = parse_response(
      server.handle_request("{\"id\": 8, \"method\": \"trace\", "
                            "\"params\": {\"job\": " +
                            std::to_string(untraced) + "}}"));
  const JsonValue* err = resp.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->as_string().find("record_trace"), std::string::npos);
}

// A span is kept only where someone reads it. The fault-sim workers of a
// traced job and an untraced job running beside it have no sink of their
// own; with the process switch off they record nothing (the server never
// exports the process sink, so spans there would only pile up).
TEST(FlowServerTest, UnscopedThreadsOfTracedJobsRecordNoSpans) {
  trace_reset();
  FlowServerOptions opts;
  opts.workers = 2;
  FlowServer server(tiny_base(), opts);
  const std::uint64_t traced =
      submit(server, "{\"tp_percent\": 2.0, \"record_trace\": true, \"atpg_jobs\": 2}");
  const std::uint64_t untraced = submit(server, "{\"tp_percent\": 4.0}");
  for (const std::uint64_t job : {traced, untraced}) {
    ASSERT_EQ(wait_result(server, job).find("state")->as_string(), "done");
  }
  EXPECT_EQ(trace_event_count(), 0u);

  const JsonValue result = rpc_result(
      server, "{\"id\": 8, \"method\": \"trace\", \"params\": {\"job\": " +
                  std::to_string(traced) + "}}");
  const JsonValue* trace = result.find("trace");
  ASSERT_NE(trace, nullptr);
  const std::string serialised = trace->serialise();
  for (const Stage s : kAllStages) {
    if (!StageMask::all().has(s)) continue;
    EXPECT_NE(serialised.find(std::string("\"name\":\"") + stage_name(s) + "\""),
              std::string::npos)
        << stage_name(s);
  }
}

// A traced SOC job runs its per-core flows on pool threads; each core task
// scopes the job's sink, so the trace holds every core's stage spans.
TEST(FlowServerTest, TracedSocJobKeepsPerCoreSpans) {
  FlowServer server(tiny_base(), {});
  const std::uint64_t job = submit(
      server, "{\"tp_percent\": 1.0, \"scale\": 0.02, \"record_trace\": true, "
              "\"soc\": {\"cores\": 4, \"tam_width\": 8}}");
  ASSERT_EQ(wait_result(server, job).find("state")->as_string(), "done");
  const JsonValue result = rpc_result(
      server, "{\"id\": 8, \"method\": \"trace\", \"params\": {\"job\": " +
                  std::to_string(job) + "}}");
  const JsonValue* trace = result.find("trace");
  ASSERT_NE(trace, nullptr);
  const std::string serialised = trace->serialise();
  const std::string needle = "\"name\":\"tpi_scan\"";
  int tpi_scan_spans = 0;
  for (std::size_t at = serialised.find(needle); at != std::string::npos;
       at = serialised.find(needle, at + needle.size())) {
    ++tpi_scan_spans;
  }
  EXPECT_GE(tpi_scan_spans, 4);
}

// Run ledger: a finished single-core job appends one line whose "flow" is
// the result RPC payload byte for byte; a job cancelled as it starts
// appends none. The line's config is the job's config alone: the base
// config's ledger path (a process setting) stays out of it.
TEST(FlowServerTest, LedgerRecordsOnlyFinishedJobs) {
  const std::string ledger_path = ::testing::TempDir() + "tpi_server_ledger.jsonl";
  std::remove(ledger_path.c_str());
  FlowConfig base;
  base.ledger = ledger_path;
  FlowServer* server_ptr = nullptr;
  FlowServerOptions opts;
  opts.workers = 1;
  opts.on_job_start = [&server_ptr](std::uint64_t id) {
    if (id != 2) return;  // job ids are handed out from 1
    server_ptr->handle_request("{\"id\": 3, \"method\": \"cancel\", \"params\": {\"job\": 2}}");
  };
  FlowServer server(base, opts);
  server_ptr = &server;

  const std::string params = "{\"scale\": 0.01, \"atpg_jobs\": 1, \"tp_percent\": 2.0}";
  const std::uint64_t done = submit(server, params);
  const std::uint64_t cancelled = submit(server, params);
  ASSERT_EQ(cancelled, 2u);
  const JsonValue result = wait_result(server, done);
  ASSERT_EQ(result.find("state")->as_string(), "done");
  EXPECT_EQ(wait_result(server, cancelled).find("state")->as_string(), "cancelled");
  server.stop();

  const std::vector<LedgerEntry> entries = Ledger::read_file(ledger_path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].label, "s38417/tp=2");
  EXPECT_EQ(entries[0].flow.serialise(), result.find("flow")->serialise());
  EXPECT_EQ(entries[0].config.find("ledger"), nullptr) << entries[0].config.serialise();
  // Named, not a FlowConfig{} temporary: GCC 12 warns -Wmaybe-uninitialized
  // about a temporary's strings inside ASSERT_TRUE.
  const FlowConfig defaults;
  FlowConfig job;
  ASSERT_TRUE(FlowConfig::from_json(params, defaults, job));
  EXPECT_EQ(entries[0].config_fp, fnv1a_hex(job.to_json()));
  std::remove(ledger_path.c_str());
}

TEST(FlowServerTest, TraceRpcRejectsNonTerminalJobs) {
  StartGate gate;
  FlowServerOptions opts;
  opts.workers = 1;
  opts.on_job_start = gate.hook();
  FlowServer server(tiny_base(), opts);

  const std::uint64_t blocker =
      submit(server, "{\"tp_percent\": 0.0, \"record_trace\": true}");
  gate.wait_first_started();
  const JsonValue resp = parse_response(
      server.handle_request("{\"id\": 8, \"method\": \"trace\", "
                            "\"params\": {\"job\": " +
                            std::to_string(blocker) + "}}"));
  const JsonValue* err = resp.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->as_string().find("still"), std::string::npos);
  gate.release();
  EXPECT_EQ(wait_result(server, blocker).find("state")->as_string(), "done");
}

// Satellite (c): stats/metrics/trace snapshots polled concurrently with a
// saturated pool never tear — every response parses, job-state counts in
// one stats snapshot always sum to the submitted count it reports.
TEST(FlowServerTest, TelemetrySnapshotsNeverTearUnderSaturatedPool) {
  FlowServerOptions opts;
  opts.workers = 2;
  FlowServer server(tiny_base(), opts);

  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> poll_failures{0};
  std::vector<std::thread> pollers;
  for (int p = 0; p < 2; ++p) {
    pollers.emplace_back([&server, &stop, &poll_failures] {
      while (!stop.load()) {
        const JsonParseResult stats =
            json_parse(server.handle_request("{\"id\": 1, \"method\": \"stats\"}"));
        if (!stats.ok || stats.value.find("result") == nullptr) {
          ++poll_failures;
          continue;
        }
        const JsonValue* result = stats.value.find("result");
        const JsonValue* jobs = result->find("jobs");
        if (jobs == nullptr) {
          ++poll_failures;
          continue;
        }
        double by_state = 0.0;
        for (const char* s : {"queued", "running", "done", "failed", "cancelled"}) {
          const JsonValue* v = jobs->find(s);
          if (v != nullptr) by_state += v->as_number();
        }
        // The torn-snapshot check: every submitted job is in exactly one
        // state within a single stats response.
        if (by_state != jobs->find("submitted")->as_number()) ++poll_failures;

        const JsonParseResult metrics = json_parse(
            server.handle_request("{\"id\": 2, \"method\": \"metrics\"}"));
        if (!metrics.ok || metrics.value.find("result") == nullptr ||
            metrics.value.find("result")->find("prometheus") == nullptr) {
          ++poll_failures;
        }
      }
    });
  }

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const std::uint64_t job = submit(
            server, j % 2 == 0 ? "{\"tp_percent\": 2.0, \"record_trace\": true}"
                               : "{\"tp_percent\": 2.0}");
        EXPECT_EQ(wait_result(server, job).find("state")->as_string(), "done");
        if (j % 2 == 0) {
          // Trace retrieval races the pollers and other clients too.
          const JsonValue trace = rpc_result(
              server, "{\"id\": 3, \"method\": \"trace\", \"params\": {\"job\": " +
                          std::to_string(job) + "}}");
          EXPECT_NE(trace.find("trace"), nullptr);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  for (std::thread& t : pollers) t.join();

  EXPECT_EQ(poll_failures.load(), 0);
  const JsonValue stats = rpc_result(server, "{\"id\": 4, \"method\": \"stats\"}");
  EXPECT_EQ(stats.find("jobs")->find("done")->as_number(),
            static_cast<double>(kClients * kJobsPerClient));
}

TEST(FlowServerTest, SocketRoundTrip) {
  FlowServerOptions opts;
  opts.workers = 2;
  opts.socket_path =
      "/tmp/tpi_server_test_" + std::to_string(::getpid()) + ".sock";
  FlowServer server(tiny_base(), opts);
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;

  FlowClient client;
  ASSERT_TRUE(client.connect(server.socket_path(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.rpc("submit", "{\"tp_percent\": 2.0}", &response, &error)) << error;
  const JsonValue submitted = parse_response(response);
  const std::uint64_t job =
      static_cast<std::uint64_t>(submitted.find("result")->find("job")->as_number());

  ASSERT_TRUE(client.rpc("result",
                         "{\"job\": " + std::to_string(job) + ", \"wait\": true}",
                         &response, &error))
      << error;
  const JsonValue result = parse_response(response);
  EXPECT_EQ(result.find("result")->find("state")->as_string(), "done");
  EXPECT_GT(result.find("result")->find("flow")->find("num_cells")->as_number(), 0.0);

  ASSERT_TRUE(client.rpc("shutdown", "", &response, &error)) << error;
  EXPECT_TRUE(parse_response(response).find("result")->find("ok")->as_bool());
  // Once shut down, the server takes no more jobs.
  const JsonValue refused = parse_response(server.handle_request(
      "{\"id\": 9, \"method\": \"submit\", \"params\": {\"tp_percent\": 2.0}}"));
  ASSERT_NE(refused.find("error"), nullptr);
  EXPECT_EQ(refused.find("error")->as_string(), "server is shutting down");
  client.close();
  server.stop();
}

TEST(FlowServerTest, ProtocolErrors) {
  FlowServerOptions opts;
  opts.workers = 1;
  FlowServer server(tiny_base(), opts);

  const auto error_of = [&](const std::string& request) {
    const JsonValue resp = parse_response(server.handle_request(request));
    const JsonValue* err = resp.find("error");
    EXPECT_NE(err, nullptr) << request;
    return err != nullptr ? err->as_string() : std::string();
  };

  EXPECT_NE(error_of("not json").find("parse error"), std::string::npos);
  EXPECT_NE(error_of("[1]").find("JSON object"), std::string::npos);
  EXPECT_NE(error_of("{\"id\": 1}").find("method"), std::string::npos);
  EXPECT_NE(error_of("{\"id\": 1, \"method\": \"frobnicate\"}").find("unknown method"),
            std::string::npos);
  EXPECT_NE(error_of("{\"id\": 1, \"method\": \"status\", \"params\": {\"job\": 999}}")
                .find("unknown job"),
            std::string::npos);
  EXPECT_NE(error_of("{\"id\": 1, \"method\": \"submit\", "
                     "\"params\": {\"profile\": \"nonesuch\"}}")
                .find("unknown profile"),
            std::string::npos);
  EXPECT_NE(error_of("{\"id\": 1, \"method\": \"submit\", "
                     "\"params\": {\"warp\": 9}}")
                .find("unknown key"),
            std::string::npos);
  // Failed submits never enqueue anything.
  const JsonValue stats = rpc_result(server, "{\"id\": 2, \"method\": \"stats\"}");
  EXPECT_EQ(stats.find("jobs")->find("submitted")->as_number(), 0.0);
}

}  // namespace
}  // namespace tpi
