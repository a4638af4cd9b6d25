// flowbench: end-to-end and per-layer benchmark of the Fig. 2 flow.
//
//   flowbench --workload NAME --seed S --seconds T [--trace 0|1]
//             [--work-dir DIR] [--out FILE] [--smoke]
//
// One workload per process. The batch workloads (paper_layout, paper_atpg,
// atspeed_lbist) run their grid cells one after another, each on a copy of
// a netlist generated during set-up. server_mixed drives an in-process
// FlowServer over its AF_UNIX socket with two closed-loop clients. A run
// cycles through the workload's job list until T seconds have passed, and
// always finishes one full pass first, so every job has a sample; times
// are reported per pass, as the median over each job's samples.
//
// Seed 0 keeps the paper's flow and ATPG seeds; any other seed remixes
// them with splitmix64 (a server job config carries the flow seed only).
// For server_mixed the seed also draws the job order and priorities. The
// circuits are the paper profiles' at every seed: generated from remixed
// profile seeds, they moved run time by 8-12% from seed to seed, which
// would hide regressions of that size.
//
// --trace 1 runs one pass in which every job runs twice, once with a
// TraceSink of its own and once untraced; the per-layer metrics come from
// the traced runs, and trace_overhead_pct compares the two latencies.
// The driver times the layers from outside: generate_circuit, every
// FlowEngine::run_stage call and the client side of every server RPC. It
// keeps the spans the program itself emits (stage, ATPG phase, routing and
// STA spans) and reads work counts from FlowResult::metrics and the
// server's stats RPC. Nothing inside the program is changed to measure it.
//
// Times are reported at a reference host speed (see HostProbe).
//
// Output: "metric NAME VALUE UNIT (raw VALUE)" lines, the failed checks,
// then one JSON line {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// --out FILE writes the full run record that compare.py reads: host,
// gating, quality metrics and the output digest.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "flow/flow_json.hpp"
#include "library/library.hpp"
#include "server/client.hpp"
#include "server/flow_server.hpp"
#include "sim/simd.hpp"
#include "util/json.hpp"
#include "util/json_check.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tpi;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed 0 keeps the paper's flow seed; any other benchmark seed remixes it.
std::uint64_t remix(std::uint64_t paper_seed, std::uint64_t seed) {
  return seed == 0 ? paper_seed : splitmix64(paper_seed ^ splitmix64(seed));
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001B3ULL;
  return h;
}

/// Linear-interpolation quantile (the "type 7" rule) of a non-empty set.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Workloads

const StageMask kLayoutPath = StageMask::all().without(Stage::kReorderAtpg);
const StageMask kAtpgPath = StageMask::all().without(Stage::kExtract).without(Stage::kSta);

struct Workload {
  std::string name;
  bool server = false;
  double scale = 1.0;
  std::vector<double> tp_percents;  ///< batch grid: every circuit x every TP %
  StageMask stages;                 ///< batch stages
  bool at_speed = false;
  int server_jobs = 0;
  int busy_threads = 1;  ///< threads the workload keeps busy (gating)
};

// Sizes are chosen so one pass takes 5-9 s on a 4-core x86 host: a 20 s
// run then times every job two or three times, and a traced run, which
// runs every job twice, stays within 20 s. --smoke shrinks every workload
// to well under a second per pass for the ctest target.
std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "paper_layout") {  // Tables 2/3: area and timing, no ATPG
    w.tp_percents = {0, 1, 3, 5};
    w.stages = kLayoutPath;
  } else if (name == "paper_atpg") {  // Table 1: test data, no extraction/STA
    w.scale = 0.12;
    w.tp_percents = {0, 1, 5};
    w.stages = kAtpgPath;
  } else if (name == "atspeed_lbist") {  // LBIST clocked at the post-TPI F_max
    w.scale = 0.5;
    w.tp_percents = {1};
    w.stages = kLayoutPath;
    w.at_speed = true;
  } else if (name == "server_mixed") {
    w.server = true;
    w.scale = 0.1;
    w.server_jobs = 60;
    w.busy_threads = 2;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.scale = 0.02;
    if (w.server) w.server_jobs = 12;
  }
  return w;
}

/// One entry of a workload's job list: a grid cell or a server job.
struct JobSpec {
  std::size_t circuit = 0;  ///< index into paper_profiles()
  double tp_percent = 0.0;
  StageMask stages;
  bool at_speed = false;
  int priority = 0;
};

std::vector<JobSpec> make_jobs(const Workload& w, std::uint64_t seed) {
  std::vector<JobSpec> jobs;
  const std::size_t circuits = paper_profiles().size();
  if (!w.server) {
    for (std::size_t c = 0; c < circuits; ++c) {
      for (const double tp : w.tp_percents) jobs.push_back({c, tp, w.stages, w.at_speed, 0});
    }
    return jobs;
  }
  // The mix is the same for every seed, so its latency quantiles compare
  // across seeds: the profile x TP % configs in turn, and one job in five
  // (each config once per 60 jobs) a full flow with ATPG, the rest the
  // layout + STA path. The seed shuffles the order and draws priorities.
  Rng rng(splitmix64(seed ^ 0x5E2FE2ULL));
  const double tps[] = {0, 1, 2, 5};
  for (int i = 0; i < w.server_jobs; ++i) {
    JobSpec j;
    j.circuit = static_cast<std::size_t>(i) % circuits;
    j.tp_percent = tps[(static_cast<std::size_t>(i) / circuits) % 4];
    j.stages = i % 5 == 0 ? StageMask::all() : kLayoutPath;
    j.priority = static_cast<int>(rng.next_below(3));
    jobs.push_back(j);
  }
  rng.shuffle(jobs);
  return jobs;
}

// ---------------------------------------------------------------------------
// Samples and traces

/// One execution of one job.
struct Sample {
  std::size_t job = 0;
  bool traced = false;
  double latency_ms = 0.0;   ///< batch: cell wall; server: submit -> result
  double job_wall_ms = 0.0;  ///< batch: cell wall; server: latency - queue wait
  double speed = 1.0;        ///< host speed factor for this job (see HostProbe)
  double submit_rpc_ms = 0.0;
  double queue_wait_ms = 0.0;
  std::string flow_text;  ///< flow_result_to_json
  JsonValue flow;
  std::string trace_text;  ///< Chrome trace of this job (traced samples)
  std::map<std::string, double> designdb;  ///< designdb.* counters (batch)
  std::vector<std::string> failures;
};

struct SpanStats {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
using SpanTable = std::map<std::string, SpanStats>;

/// Span table of one Chrome trace document. A span's self time is its
/// duration minus the spans nested directly inside it on the same thread.
SpanTable analyse_trace(const JsonValue& doc) {
  struct Ev {
    std::string name;
    double ts = 0.0, dur = 0.0, self = 0.0;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Ev>> by_thread;
  const JsonValue* events = doc.find("traceEvents");
  if (events != nullptr && events->is_array()) {
    for (const JsonValue& e : events->as_array()) {
      const JsonValue* ph = e.find("ph");
      if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
      const double dur = e.find("dur")->as_number();
      by_thread[{e.find("pid")->as_int(), e.find("tid")->as_int()}].push_back(
          {e.find("name")->as_string(), e.find("ts")->as_number(), dur, dur});
    }
  }
  SpanTable table;
  for (auto& [thread, evs] : by_thread) {
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;  // parents first
    });
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      while (!open.empty() && evs[open.back()].ts + evs[open.back()].dur <= evs[i].ts) {
        open.pop_back();
      }
      if (!open.empty()) evs[open.back()].self -= evs[i].dur;
      open.push_back(i);
    }
    for (const Ev& e : evs) {
      SpanStats& s = table[e.name];
      ++s.count;
      s.total_ms += e.dur / 1000.0;
      s.self_ms += e.self / 1000.0;
    }
  }
  return table;
}

void merge_into(SpanTable& into, const SpanTable& from) {
  for (const auto& [name, s] : from) {
    SpanStats& d = into[name];
    d.count += s.count;
    d.total_ms += s.total_ms;
    d.self_ms += s.self_ms;
  }
}

double span_total(const SpanTable& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_ms;
}

/// Span names the driver records around each run_stage call.
constexpr std::array<const char*, kNumStages> kBenchStageSpans = {
    "bench.tpi_scan", "bench.floorplan_place", "bench.reorder_atpg", "bench.eco",
    "bench.extract",  "bench.sta",             "bench.verify",
};

double flow_number(const JsonValue& flow, std::string_view key) {
  const JsonValue* v = flow.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

double flow_counter(const JsonValue& flow, std::string_view name) {
  const JsonValue* m = flow.find("metrics");
  return m != nullptr ? flow_number(*m, name) : 0.0;
}

int stage_count(StageMask mask) {
  int n = 0;
  for (const Stage s : kAllStages) n += mask.has(s) ? 1 : 0;
  return n;
}

/// Checks of one flow result against the job that produced it.
void check_flow(const JsonValue& flow, const JobSpec& job, std::vector<std::string>& failures) {
  const auto fail_if = [&](bool bad, const std::string& what) {
    if (bad) failures.push_back(what);
  };
  const JsonValue* cancelled = flow.find("cancelled");
  fail_if(cancelled == nullptr || !cancelled->is_bool() || cancelled->as_bool(), "cancelled");
  fail_if(flow_counter(flow, "flow.stages_run") != stage_count(job.stages),
          "not every masked stage ran");
  fail_if(!(flow_number(flow, "num_cells") > 0), "num_cells <= 0");
  fail_if(!(flow_number(flow, "chip_area_um2") > 0), "chip_area_um2 <= 0");
  if (job.stages.has(Stage::kSta)) fail_if(!(flow_number(flow, "t_cp_ps") > 0), "t_cp_ps <= 0");
  if (job.stages.has(Stage::kReorderAtpg)) {
    const double fc = flow_number(flow, "fault_coverage_pct");
    const double fe = flow_number(flow, "fault_efficiency_pct");
    fail_if(!(flow_number(flow, "saf_patterns") > 0), "saf_patterns <= 0");
    fail_if(!(0 < fc && fc <= fe && fe <= 100), "not 0 < FC <= FE <= 100");
  }
  if (job.at_speed) {
    const JsonValue* a = flow.find("at_speed");
    fail_if(a == nullptr, "at-speed LBIST did not run");
    if (a != nullptr) {
      fail_if(flow_number(*a, "at_speed_coverage_pct") <
                  flow_number(*a, "slow_speed_coverage_pct"),
              "at-speed coverage < slow-speed coverage");
    }
  }
}

std::string job_label(const JobSpec& job) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s/tp=%g", paper_profiles()[job.circuit].name.c_str(),
                job.tp_percent);
  return buf;
}

// ---------------------------------------------------------------------------
// Batch workloads

struct BatchSetup {
  std::unique_ptr<CellLibrary> lib;
  std::vector<CircuitProfile> profiles;
  std::vector<std::unique_ptr<Netlist>> golden;
  double generate_ms = 0.0;
  double cells = 0.0;
};

BatchSetup set_up_batch(const Workload& w) {
  BatchSetup s;
  s.lib = make_phl130_library();
  for (const CircuitProfile& paper : paper_profiles()) {
    CircuitProfile p = w.scale == 1.0 ? paper : scaled(paper, w.scale);
    p.name = paper.name;
    const auto t0 = Clock::now();
    {
      TPI_SPAN("bench.generate");
      s.golden.push_back(generate_circuit(*s.lib, p));
    }
    s.generate_ms += ms_since(t0);
    s.cells += static_cast<double>(s.golden.back()->num_cells());
    s.profiles.push_back(p);
  }
  return s;
}

/// Runs one grid cell on a copy of its golden netlist, one run_stage call
/// per masked stage, each inside a driver span.
Sample run_cell(const BatchSetup& s, const JobSpec& job, std::size_t index, std::uint64_t seed,
                bool traced, bool verify = false) {
  Sample out;
  out.job = index;
  out.traced = traced;
  FlowOptions opts;
  opts.tp_percent = job.tp_percent;
  opts.seed = remix(opts.seed, seed);
  opts.atpg.seed = remix(opts.atpg.seed, seed);
  opts.at_speed_lbist = job.at_speed;
  opts.verify = verify;
  const StageMask stages = verify ? job.stages.with(Stage::kVerify) : job.stages;

  std::optional<TraceSink> sink;
  if (traced) sink.emplace(index + 1, job_label(job));
  {
    std::optional<ScopedTraceSink> scope;
    if (sink) scope.emplace(*sink);
    const auto t0 = Clock::now();
    {
      TPI_SPAN("bench.cell");
      std::optional<Netlist> nl;
      std::optional<FlowEngine> engine;
      {
        TPI_SPAN("bench.prepare");
        nl.emplace(*s.golden[job.circuit]);
        engine.emplace(*nl, s.profiles[job.circuit], opts);
      }
      for (const Stage st : kAllStages) {
        if (!stages.has(st)) continue;
        TraceSpan span(kBenchStageSpans[static_cast<std::size_t>(st)]);
        engine->run_stage(st);
      }
      TPI_SPAN("bench.finish");
      const FlowResult& r = engine->result();
      out.flow = flow_result_to_json_value(r);
      for (const MetricValue& m : r.metrics.metrics) {
        if (m.name.rfind("designdb.", 0) == 0) out.designdb[m.name] = static_cast<double>(m.count);
      }
      engine.reset();
      nl.reset();
    }
    out.latency_ms = ms_since(t0);
  }
  out.job_wall_ms = out.latency_ms;
  out.flow_text = out.flow.serialise();
  if (sink) out.trace_text = sink->to_json();
  return out;
}

// ---------------------------------------------------------------------------
// Server workload

bool rpc_result(FlowClient& client, std::string_view method, const std::string& params,
                JsonValue& result, std::string& error) {
  std::string line;
  if (!client.rpc(method, params, &line, &error)) return false;
  const JsonParseResult parsed = json_parse(line);
  if (!parsed.ok || !parsed.value.is_object()) {
    error = std::string(method) + ": malformed response";
    return false;
  }
  if (const JsonValue* e = parsed.value.find("error")) {
    error = std::string(method) + ": " + e->serialise();
    return false;
  }
  const JsonValue* r = parsed.value.find("result");
  if (r == nullptr) {
    error = std::string(method) + ": response without result";
    return false;
  }
  result = *r;
  return true;
}

/// Submit params of a job, without the per-sample record_trace flag; also
/// the key under which identical configs must give identical results.
JsonValue job_params(const Workload& w, const JobSpec& job, std::uint64_t seed) {
  JsonValue p{JsonObject{}};
  p.set("profile", paper_profiles()[job.circuit].name);
  p.set("scale", w.scale);
  p.set("tp_percent", job.tp_percent);
  p.set("seed", std::to_string(remix(FlowOptions{}.seed, seed)));
  if (job.stages == StageMask::all()) {
    p.set("stages", "all");
  } else {
    JsonArray names;
    for (const Stage s : kAllStages) {
      if (job.stages.has(s)) names.emplace_back(stage_name(s));
    }
    p.set("stages", JsonValue(std::move(names)));
  }
  return p;
}

struct ServerSetup {
  std::unique_ptr<FlowServer> server;
  double warm_ms = 0.0;
  double cells = 0.0;
};

/// Constructs the server, listens, and runs one warm-up job per profile so
/// the design cache holds every circuit before timing starts.
ServerSetup set_up_server(const Workload& w, std::uint64_t seed, const std::string& socket_path,
                          std::string& error) {
  ServerSetup s;
  FlowServerOptions opts;
  opts.workers = w.busy_threads;
  opts.socket_path = socket_path;
  const FlowConfig base;
  s.server = std::make_unique<FlowServer>(base, opts);
  if (!s.server->listen(&error)) return s;
  FlowClient client;
  if (!client.connect(socket_path, &error)) return s;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < paper_profiles().size(); ++c) {
    JobSpec warm;
    warm.circuit = c;
    warm.stages = StageMask::none()
                      .with(Stage::kTpiScan)
                      .with(Stage::kFloorplanPlace)
                      .with(Stage::kEco);
    JsonValue result;
    if (!rpc_result(client, "submit", job_params(w, warm, seed).serialise(), result, error)) {
      return s;
    }
    const std::string wait =
        "{\"job\": " + std::to_string(result.find("job")->as_int()) + ", \"wait\": true}";
    if (!rpc_result(client, "result", wait, result, error)) return s;
    const JsonValue* flow = result.find("flow");
    if (flow == nullptr) {
      error = "warm-up job returned no flow";
      return s;
    }
    s.cells += flow_number(*flow, "num_cells");
  }
  s.warm_ms = ms_since(t0);
  return s;
}

/// One server job through `client`: submit, wait for the result and, when
/// `traced`, fetch the job's trace. nullopt (with `error`) on an RPC failure.
std::optional<Sample> server_job(FlowClient& client, const Workload& w, const JobSpec& job,
                                 std::size_t index, std::uint64_t seed, bool traced,
                                 TraceSink& sink, std::string& error) {
  Sample s;
  s.job = index;
  s.traced = traced;
  std::optional<ScopedTraceSink> scope;
  if (traced) scope.emplace(sink);
  JsonValue params = job_params(w, job, seed);
  params.set("priority", job.priority);
  if (traced) params.set("record_trace", true);
  JsonValue result;
  const auto t0 = Clock::now();
  {
    TPI_SPAN("bench.rpc.submit");
    if (!rpc_result(client, "submit", params.serialise(), result, error)) return std::nullopt;
  }
  s.submit_rpc_ms = ms_since(t0);
  const std::string id = std::to_string(result.find("job")->as_int());
  {
    TPI_SPAN("bench.rpc.result");
    if (!rpc_result(client, "result", "{\"job\": " + id + ", \"wait\": true}", result, error)) {
      return std::nullopt;
    }
  }
  s.latency_ms = ms_since(t0);
  s.queue_wait_ms = flow_number(result, "queue_wait_ns") / 1e6;
  s.job_wall_ms = s.latency_ms - s.queue_wait_ms;
  const JsonValue* state = result.find("state");
  if (state == nullptr || !state->is_string() || state->as_string() != "done") {
    s.failures.push_back("job " + id + " did not end done");
  }
  if (const JsonValue* flow = result.find("flow")) {
    s.flow = *flow;
    s.flow_text = flow->serialise();
  }
  if (traced) {
    TPI_SPAN("bench.rpc.trace");
    if (!rpc_result(client, "trace", "{\"job\": " + id + "}", result, error)) return std::nullopt;
    s.trace_text = result.find("trace")->serialise();
  }
  return s;
}

/// Runs `run_one(job, traced)` over `mine` in the order a run measures,
/// appending to `out`. With `trace`: one pass in which every job runs
/// twice, traced and untraced, the order alternating from job to job so
/// neither side always runs warm. Without: passes over `mine` while the
/// next job, at its first-pass latency, still ends before `deadline`; the
/// first pass always completes. False when `run_one` fails.
template <typename RunOne>
bool run_schedule(const std::vector<std::size_t>& mine, bool trace, Clock::time_point deadline,
                  std::vector<Sample>& out, RunOne&& run_one) {
  const auto add = [&](std::size_t j, bool traced) {
    std::optional<Sample> s = run_one(j, traced);
    if (s) out.push_back(std::move(*s));
    return s.has_value();
  };
  if (trace) {
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const bool traced_first = k % 2 == 0;
      if (!add(mine[k], traced_first) || !add(mine[k], !traced_first)) return false;
    }
    return true;
  }
  std::vector<Clock::duration> first;
  for (const std::size_t j : mine) {
    if (!add(j, false)) return false;
    first.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(out.back().latency_ms)));
  }
  for (;;) {
    for (std::size_t k = 0; k < mine.size(); ++k) {
      if (Clock::now() + first[k] > deadline) return true;
      if (!add(mine[k], false)) return false;
    }
  }
}

// ---------------------------------------------------------------------------
// Host record

struct Host {
  int nproc = 0;
  std::string simd;
  int lane_width = 0;
  double load_1m = 0.0;
};

Host read_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(std::thread::hardware_concurrency());
  h.simd = simd_backend_name(simd_backend());
  h.lane_width = simd_lane_bits();
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) h.load_1m = load[0];
  return h;
}

// Host speed drifts on a shared VM (measured on 4 x86 vCPUs with AVX-512):
// a fixed job runs 10-30 % slower for minutes at a time, up to 2x, and a
// drift slows every job of a run alike. So the driver times a fixed probe
// on the thread doing the work, right before every server set-up and every
// batch cell, and reports each of those times at the reference speed: time x
// kReferenceProbeMs / that probe's time. Server jobs run on pool threads
// while other jobs run, so they use the median of probes taken every
// kLoopProbeInterval on a thread of their own through the timed loop (see
// LoopProber). The raw values are printed and kept in
// the run record too. The probe is compiled into the benchmark, so no
// change to the program moves it. It mixes a floating-point dependency
// chain, a breadth-first search over a sparse graph with netlist-like
// locality, and random updates of an 8 MiB table. Timed this way during a
// slow spell of that VM, it cut the spread of 20 s windows of a layout job
// from 29 % to 14 % and of an ATPG job from 20 % to 5 %: for those jobs
// better than any kernel alone, than a larger probe, than one factor per
// run, or than a probe on a thread of its own.

/// Probe time on that VM when it runs fast.
constexpr double kReferenceProbeMs = 4.0;

// Netlist generation, the batch set-up, slows more than the probe when that
// VM is slow: in 40 set-up runs of paper_atpg its time went as the probe's
// to the power 2.0, so scaling by the probe left a bias of up to 30 %
// between sets of runs taken at different times. It went as the power 1.0
// of HostProbe::netlist(), which scales batch set-ups instead. A server
// set-up is mostly warm-up flows, scaled by the probe like the flows.

/// HostProbe::netlist() time on that VM when it runs fast.
constexpr double kReferenceNetlistProbeMs = 4.5;

class HostProbe {
 public:
  HostProbe() : table_(std::size_t{1} << 21), dist_(kNodes) {
    std::uint64_t x = 7;
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
      for (int k = 0; k < 5; ++k) {
        x = x * 6364136223846793005ULL + 1;
        const std::uint32_t r = static_cast<std::uint32_t>(x >> 33);
        targets_.push_back(k < 3 ? (v + 1 + r % 64) % kNodes : r % kNodes);
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
    run();  // the first run pays the page faults
  }

  /// One probe: the geometric mean of the three kernels' times, in ms.
  double run() {
    auto t0 = Clock::now();
    double a = 0.0;
    for (int i = 0; i < 2'000'000; ++i) a = a * 1.0000001 + i;
    const double fp_ms = ms_since(t0);

    t0 = Clock::now();
    std::fill(dist_.begin(), dist_.end(), -1);
    queue_.assign(1, 0);
    dist_[0] = 0;
    for (std::size_t h = 0; h < queue_.size(); ++h) {
      const std::uint32_t u = queue_[h];
      for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const std::uint32_t v = targets_[e];
        if (dist_[v] < 0) {
          dist_[v] = dist_[u] + 1;
          queue_.push_back(v);
        }
      }
    }
    const double graph_ms = ms_since(t0);

    t0 = Clock::now();
    std::uint64_t x = 1;
    for (int i = 0; i < 500'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      table_[(x >> 40) & (table_.size() - 1)] += static_cast<std::uint32_t>(x);
    }
    const double table_ms = ms_since(t0);

    sink_ = a + static_cast<double>(queue_.size() + table_[x & (table_.size() - 1)]);
    return std::cbrt(fp_ms * graph_ms * table_ms);
  }

  /// The set-up probe: builds, queries and frees a hash map of 20000 named
  /// nets with three fan-ins each, in ms.
  double netlist() {
    const auto t0 = Clock::now();
    {
      std::unordered_map<std::string, std::vector<std::uint32_t>> nets;
      for (std::uint32_t i = 0; i < 20'000; ++i) {
        nets.emplace("net_" + std::to_string(i),
                     std::vector<std::uint32_t>{i, i * 7 % 20'000, i * 13 % 20'000});
      }
      std::size_t fanins = 0;
      for (std::uint32_t i = 0; i < 20'000; i += 3) fanins += nets["net_" + std::to_string(i)].size();
      sink_ = sink_ + static_cast<double>(fanins);
    }
    return ms_since(t0);
  }

 private:
  static constexpr std::uint32_t kNodes = 100'000;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint32_t> offsets_, targets_, queue_;
  std::vector<std::int32_t> dist_;
  /// Volatile so the compiler cannot drop the kernels as dead code.
  volatile double sink_ = 0.0;
};

// Probes taken before and after a server loop missed how the host ran
// during it: over 12 runs of server_mixed, scaling by their median spread
// wall_s 14 %, job_p50_ms 11 % and job_p90_ms 18 %; the median of probes
// taken every 250 ms through the loop gave 9 %, 8 % and 14 %. Such a probe
// runs beside the two busy pool workers, one vCPU of four, 2 % of the time.
constexpr auto kLoopProbeInterval = std::chrono::milliseconds(250);

/// Runs `probe` on a thread of its own at once and then every
/// kLoopProbeInterval until stop().
class LoopProber {
 public:
  explicit LoopProber(HostProbe& probe)
      : thread_([this, &probe] {
          std::unique_lock<std::mutex> lock(mu_);
          do {
            lock.unlock();
            const double ms = probe.run();
            lock.lock();
            times_.push_back(ms);
          } while (!done_cv_.wait_for(lock, kLoopProbeInterval, [this] { return done_; }));
        }) {}
  ~LoopProber() { stop(); }
  LoopProber(const LoopProber&) = delete;
  LoopProber& operator=(const LoopProber&) = delete;

  /// Stops the thread and returns the probe times, in ms (at least one).
  std::vector<double> stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    done_cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return times_;
  }

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  bool done_ = false;                ///< guarded by mu_
  std::vector<double> times_;        ///< guarded by mu_ until the join
  std::thread thread_;               ///< last: it uses the members above
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

JsonValue metrics_json(const std::vector<Metric>& metrics) {
  JsonValue o{JsonObject{}};
  for (const Metric& m : metrics) {
    JsonValue v{JsonObject{}};
    v.set("value", m.value);
    v.set("unit", m.unit);
    o.set(m.name, std::move(v));
  }
  return o;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// `raw` at the reference host speed: times scale by `speed`, rates by its
/// inverse.
std::vector<Metric> at_reference_speed(std::vector<Metric> raw, double speed) {
  for (Metric& m : raw) {
    if (m.unit == "s" || m.unit == "ms") m.value *= speed;
    if (m.unit == "1/s") m.value /= speed;
  }
  return raw;
}

/// Counts the run-level checks and keeps the messages of failed ones.
struct Checks {
  int attempted = 0;
  std::vector<std::string> failures;
  void operator()(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Samples grouped by job, in job order.
std::vector<std::vector<const Sample*>> by_job(const std::vector<Sample>& samples,
                                               std::size_t jobs, bool traced) {
  std::vector<std::vector<const Sample*>> out(jobs);
  for (const Sample& s : samples) {
    if (s.traced == traced) out[s.job].push_back(&s);
  }
  return out;
}

/// Per-layer metrics of the traced pass (exactly one traced sample per
/// job); `spans` receives the merged span table of the traced samples.
std::vector<Metric> layer_metrics(const Workload& w, const std::vector<JobSpec>& jobs,
                                  const std::vector<Sample>& samples, double generate_ms,
                                  double cells, const JsonValue& cache_delta, Checks& check,
                                  SpanTable& spans) {
  std::map<std::string, double> count;
  double overhead_ms = 0.0;
  std::vector<double> submit_ms, queue_ms, run_ms;
  const char* counters[] = {
      "placement.global_iterations", "routing.nets",
      "routing.overflowed_crossings", "atpg.podem.calls",
      "atpg.podem.backtracks",        "atpg.podem.aborts",
      "atpg.sim.faults_graded",       "atpg.sim.node_evals",
      "atpg.sim.events",              "atpg.patterns",
      "atspeed.lbist.patterns",       "atspeed.lbist.qualified",
      "sim.good_node_evals",          "sim.good_sweeps",
      "sta.runs",                     "sta.slow_nodes",
  };
  for (const Sample& s : samples) {
    if (!s.traced) continue;
    const JsonParseResult doc = json_parse(s.trace_text);
    const SpanTable t = analyse_trace(doc.value);
    merge_into(spans, t);
    double stages_ms = 0.0;
    for (const Stage st : kAllStages) {
      stages_ms += span_total(t, w.server ? stage_name(st)
                                          : kBenchStageSpans[static_cast<std::size_t>(st)]);
    }
    overhead_ms += s.job_wall_ms - stages_ms;
    // The stage spans plus the copy-in and teardown spans around them must
    // account for the cell, so no layer's time goes unattributed.
    if (!w.server) {
      const double attributed =
          stages_ms + span_total(t, "bench.prepare") + span_total(t, "bench.finish");
      check(attributed >= 0.95 * span_total(t, "bench.cell"),
            job_label(jobs[s.job]) + ": driver spans cover < 95% of the cell");
    }
    for (const char* c : counters) count[c] += flow_counter(s.flow, c);
    for (const auto& [name, v] : s.designdb) count[name] += v;
    count["tpi.test_points"] += flow_number(s.flow, "num_test_points");
    count["cells_placed"] += flow_number(s.flow, "num_cells");
    submit_ms.push_back(s.submit_rpc_ms);
    queue_ms.push_back(s.queue_wait_ms);
    run_ms.push_back(s.job_wall_ms);
  }

  // Tracing overhead: every job ran once traced and once untraced.
  double traced_ms = 0.0, untraced_ms = 0.0;
  for (const Sample& s : samples) (s.traced ? traced_ms : untraced_ms) += s.latency_ms;

  const auto stage_ms = [&](Stage st) {
    return span_total(spans, w.server ? stage_name(st)
                                      : kBenchStageSpans[static_cast<std::size_t>(st)]);
  };
  const auto per_s = [](double n, double ms) { return ratio(n, ms / 1000.0); };
  const double hits = count["designdb.view_hits"];
  const double db_work = hits + count["designdb.view_refreshes"] + count["designdb.rebuilds"];
  const double podem_ms = span_total(spans, "atpg.podem");
  const double route_ms = span_total(spans, "routing.route");
  const double lbist_ms = spans.count("sta") ? spans["sta"].self_ms : 0.0;
  // The cache counters cover the whole timed loop; scale them to one pass.
  const double per_pass = ratio(static_cast<double>(jobs.size()), samples.size());
  const double cache_hits = per_pass * flow_number(cache_delta, "server.cache.hits");
  const double cache_misses = per_pass * flow_number(cache_delta, "server.cache.misses");
  const auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : quantile(v, p);
  };
  const bool server = w.server;

  std::vector<Metric> m = {
      {"circuits.generate_ms", generate_ms, "ms"},
      {"circuits.cells", cells, "count"},
  };
  for (const Stage st : kAllStages) {
    if (st == Stage::kVerify) continue;
    m.push_back({std::string("stage.") + stage_name(st) + "_ms", stage_ms(st), "ms"});
  }
  const std::vector<Metric> rest = {
      {"flow.overhead_ms", overhead_ms, "ms"},
      {"tpi.test_points", count["tpi.test_points"], "count"},
      {"tpi.test_points_per_s",
       per_s(count["tpi.test_points"], stage_ms(Stage::kTpiScan)), "1/s"},
      {"designdb.rebuilds", count["designdb.rebuilds"], "count"},
      {"designdb.view_hits", hits, "count"},
      {"designdb.hit_ratio", ratio(hits, db_work), "ratio"},
      {"placement.global_iterations", count["placement.global_iterations"], "count"},
      {"placement.cells_per_s",
       per_s(count["cells_placed"], stage_ms(Stage::kFloorplanPlace)), "1/s"},
      {"routing.route_ms", route_ms, "ms"},
      {"routing.nets", count["routing.nets"], "count"},
      {"routing.nets_per_s", per_s(count["routing.nets"], route_ms), "1/s"},
      {"routing.overflowed_crossings", count["routing.overflowed_crossings"], "count"},
      {"atpg.random_ms", span_total(spans, "atpg.random"), "ms"},
      {"atpg.podem_ms", podem_ms, "ms"},
      {"atpg.static_compaction_ms", span_total(spans, "atpg.static_compaction"), "ms"},
      {"atpg.podem.calls", count["atpg.podem.calls"], "count"},
      {"atpg.podem.backtracks", count["atpg.podem.backtracks"], "count"},
      {"atpg.podem.aborts", count["atpg.podem.aborts"], "count"},
      {"atpg.podem.success_ratio",
       count["atpg.podem.calls"] > 0
           ? 1.0 - count["atpg.podem.aborts"] / count["atpg.podem.calls"]
           : 0.0,
       "ratio"},
      {"atpg.podem.calls_per_s", per_s(count["atpg.podem.calls"], podem_ms), "1/s"},
      {"atpg.sim.faults_graded", count["atpg.sim.faults_graded"], "count"},
      {"atpg.sim.node_evals", count["atpg.sim.node_evals"], "count"},
      {"atpg.sim.events", count["atpg.sim.events"], "count"},
      {"atpg.sim.node_evals_per_s",
       per_s(count["atpg.sim.node_evals"], stage_ms(Stage::kReorderAtpg)), "1/s"},
      {"atpg.patterns", count["atpg.patterns"], "count"},
      {"lbist.ms", lbist_ms, "ms"},
      {"atspeed.lbist.patterns", count["atspeed.lbist.patterns"], "count"},
      {"atspeed.lbist.qualified", count["atspeed.lbist.qualified"], "count"},
      {"lbist.patterns_per_s", per_s(count["atspeed.lbist.patterns"], lbist_ms), "1/s"},
      {"sim.good_node_evals", count["sim.good_node_evals"], "count"},
      {"sim.good_sweeps", count["sim.good_sweeps"], "count"},
      {"sim.lane_width", static_cast<double>(simd_lane_bits()), "bits"},
      {"sta.run_ms", span_total(spans, "sta.run"), "ms"},
      {"sta.runs", count["sta.runs"], "count"},
      {"sta.slow_nodes", count["sta.slow_nodes"], "count"},
      {"server.submit_rpc_ms.p50", server ? q(submit_ms, 0.5) : 0.0, "ms"},
      {"server.queue_wait_ms.p50", server ? q(queue_ms, 0.5) : 0.0, "ms"},
      {"server.queue_wait_ms.p90", server ? q(queue_ms, 0.9) : 0.0, "ms"},
      {"server.job_run_ms.p50", server ? q(run_ms, 0.5) : 0.0, "ms"},
      {"server.cache.hits", cache_hits, "count"},
      {"server.cache.misses", cache_misses, "count"},
      {"server.cache.hit_ratio", ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"trace_overhead_pct", untraced_ms > 0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0,
       "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Quality of one pass, from the first sample of every job. Exact for a
/// given seed, so compare.py requires equality between run sets.
std::vector<Metric> quality_metrics(const std::vector<JobSpec>& jobs,
                                    const std::vector<const Sample*>& first) {
  double tat = 0, area = 0, tcp = 0, fc = 0, at = 0;
  int atpg_jobs = 0, at_jobs = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JsonValue& f = first[j]->flow;
    area += flow_number(f, "chip_area_um2");
    tcp += flow_number(f, "t_cp_ps");
    if (jobs[j].stages.has(Stage::kReorderAtpg)) {
      tat += flow_number(f, "tat_cycles");
      fc += flow_number(f, "fault_coverage_pct");
      ++atpg_jobs;
    }
    if (const JsonValue* a = f.find("at_speed")) {
      at += flow_number(*a, "at_speed_coverage_pct");
      ++at_jobs;
    }
  }
  return {
      {"tat_cycles", tat, "cycles"},
      {"fault_coverage_pct", ratio(fc, atpg_jobs), "%"},
      {"chip_area_um2", area, "um2"},
      {"t_cp_ps", tcp, "ps"},
      {"atspeed_coverage_pct", ratio(at, at_jobs), "%"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

/// Server set-ups per run: at least kMinSetups, and more until
/// kSetupBudgetS of set-up time has passed; setup_s is their median. A
/// set-up takes 10-150 ms, so one measurement is mostly scheduling jitter.
constexpr std::size_t kMinSetups = 9;
constexpr double kSetupBudgetS = 1.0;

/// Timed loop of the server workload: one closed-loop client per busy
/// thread, job j going to client j mod clients. Fills `cache_delta` with
/// the design-cache counters the loop added.
std::vector<Sample> run_server(const Workload& w, const std::vector<JobSpec>& jobs,
                               const std::string& socket_path, std::uint64_t seed, bool trace,
                               Clock::time_point deadline, std::deque<TraceSink>& client_sinks,
                               JsonValue& cache_delta, Checks& check) {
  std::string error;
  JsonValue before, after;
  FlowClient stats;
  check(stats.connect(socket_path, &error) && rpc_result(stats, "stats", "{}", before, error),
        "stats RPC: " + error);
  const int clients = w.busy_threads;
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::string> errors(clients);
  for (int c = 0; c < clients; ++c) client_sinks.emplace_back(1000000 + c, "client");
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    std::vector<std::size_t> mine;
    for (std::size_t j = c; j < jobs.size(); j += clients) mine.push_back(j);
    threads.emplace_back([&, c, mine] {
      FlowClient client;
      if (!client.connect(socket_path, &errors[c])) return;
      run_schedule(mine, trace, deadline, per_client[c], [&](std::size_t j, bool traced) {
        return server_job(client, w, jobs[j], j, seed, traced, client_sinks[c], errors[c]);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> samples;
  for (int c = 0; c < clients; ++c) {
    check(errors[c].empty(), "client " + std::to_string(c) + ": " + errors[c]);
    for (Sample& s : per_client[c]) samples.push_back(std::move(s));
  }
  check(rpc_result(stats, "stats", "{}", after, error), "stats RPC: " + error);
  for (const char* k : {"server.cache.hits", "server.cache.misses"}) {
    cache_delta.set(k, flow_number(after, k) - flow_number(before, k));
  }
  check(flow_number(cache_delta, "server.cache.hits") > 0, "design cache got no hits");
  return samples;
}

int run(const Args& args) {
  const std::optional<Workload> found = find_workload(args.workload, args.smoke);
  if (!found) {
    std::fprintf(stderr, "flowbench: unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const std::vector<JobSpec> jobs = make_jobs(w, args.seed);
  const Host host = read_host();
  Checks check;

  HostProbe probe;
  // Probe times, ms: batch, one per cell; server, one per set-up until the
  // loop's replace them.
  std::vector<double> probes;

  // ---- set-up, repeated; the last one serves what follows ----
  // The host's speed changes over seconds to minutes, so set-ups are
  // spread over the run: a batch workload sets up again before every cell
  // of its timed loop. A server set-up must precede the loop, so the
  // server workload sets up several times before it.
  TraceSink setup_sink(0, "setup");
  std::vector<double> setup_s, setup_speed, generate_ms;
  double cells = 0.0;
  BatchSetup batch;
  ServerSetup srv;
  const std::string socket_path =
      args.work_dir + "/flowbench-" + std::to_string(::getpid()) + ".sock";
  // One set-up, at the speed of the probe just taken (server) or of the
  // netlist probe (batch). The previous set-up is freed (and its server
  // stopped) first, so two never coexist and set-up's memory peak stays
  // below the timed loop's.
  const auto set_up = [&]() {
    std::optional<ScopedTraceSink> scope;
    if (args.trace && setup_s.empty()) scope.emplace(setup_sink);
    srv = ServerSetup{};
    batch = BatchSetup{};
    setup_speed.push_back(w.server ? kReferenceProbeMs / probes.back()
                                   : kReferenceNetlistProbeMs / probe.netlist());
    const auto t0 = Clock::now();
    std::string error;
    if (w.server) {
      srv = set_up_server(w, args.seed, socket_path, error);
      generate_ms.push_back(srv.warm_ms);
      cells = srv.cells;
    } else {
      batch = set_up_batch(w);
      generate_ms.push_back(batch.generate_ms);
      cells = batch.cells;
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
    return error;
  };
  double setup_spent_s = 0.0;
  while (w.server && (setup_s.size() < kMinSetups || setup_spent_s < kSetupBudgetS)) {
    probes.push_back(probe.run());
    const std::string error = set_up();
    if (!error.empty()) {
      std::fprintf(stderr, "flowbench: server set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_spent_s += setup_s.back();
  }

  // ---- timed loop ----
  JsonValue cache_delta{JsonObject{}};
  std::deque<TraceSink> client_sinks;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args.seconds));
  std::vector<Sample> samples;
  if (w.server) {
    LoopProber prober(probe);
    samples = run_server(w, jobs, socket_path, args.seed, args.trace, deadline, client_sinks,
                         cache_delta, check);
    probes = prober.stop();  // the set-up probes have served their set-ups
  } else {
    std::vector<std::size_t> all(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) all[j] = j;
    run_schedule(all, args.trace, deadline, samples, [&](std::size_t j, bool traced) {
      probes.push_back(probe.run());
      set_up();
      Sample s = run_cell(batch, jobs[j], j, args.seed, traced);
      s.speed = kReferenceProbeMs / probes.back();
      return std::optional<Sample>(std::move(s));
    });
  }
  const double elapsed_s = ms_since(start) / 1000.0;
  const double run_speed = kReferenceProbeMs / median(probes);
  if (w.server) {
    for (Sample& s : samples) s.speed = run_speed;
  }
  const double peak_rss_mb = peak_rss_kb() / 1024.0;
  srv = ServerSetup{};

  // ---- checks ----
  std::vector<const Sample*> first(jobs.size(), nullptr);
  std::map<std::string, std::string> result_of_config;
  for (Sample& s : samples) {
    if (!s.flow_text.empty()) check_flow(s.flow, jobs[s.job], s.failures);
    if (first[s.job] == nullptr) first[s.job] = &s;
    // Repeated identical configs must give byte-identical results.
    const std::string key = w.server ? job_params(w, jobs[s.job], args.seed).serialise()
                                     : std::to_string(s.job);
    const auto [it, inserted] = result_of_config.emplace(key, s.flow_text);
    if (!inserted && it->second != s.flow_text) {
      s.failures.push_back("result differs from an identical earlier job");
    }
  }
  if (std::count(first.begin(), first.end(), nullptr) > 0) {
    std::fprintf(stderr, "flowbench: not every job completed\n");
    for (const std::string& f : check.failures) std::fprintf(stderr, "  %s\n", f.c_str());
    return 1;
  }

  // Untimed re-run of the s38417 1%-TP cell with the verify stage: the
  // flow must stay equivalent to the pre-transform netlist in mission mode,
  // every claimed ATPG detection must replay, and the table values must
  // equal the timed cell's.
  if (!w.server) {
    const auto cell = std::find_if(jobs.begin(), jobs.end(), [](const JobSpec& j) {
      return j.circuit == 0 && j.tp_percent == 1.0;
    });
    const std::size_t j = static_cast<std::size_t>(cell - jobs.begin());
    const Sample v = run_cell(batch, *cell, j, args.seed, false, true);
    const JsonValue* verify = v.flow.find("verify");
    check(verify != nullptr && verify->find("ok")->as_bool(),
          "verify cell: not equivalent, or a detection did not replay");
    for (const char* key : {"num_test_points", "num_ffs", "num_cells", "chip_area_um2",
                            "wire_length_um", "t_cp_ps", "saf_patterns", "fault_coverage_pct",
                            "fault_efficiency_pct", "tat_cycles"}) {
      check(flow_number(v.flow, key) == flow_number(first[j]->flow, key),
            std::string("verify cell: ") + key + " differs from the timed cell");
    }
  }

  // ---- metrics ----
  std::vector<Metric> raw;
  SpanTable spans;
  if (args.trace) {
    raw = layer_metrics(w, jobs, samples, median(generate_ms), cells, cache_delta, check, spans);
    JsonArray events;
    const auto append = [&](const std::string& text) {
      const JsonParseResult doc = json_parse(text);
      const JsonValue* ev = doc.ok ? doc.value.find("traceEvents") : nullptr;
      check(ev != nullptr && ev->is_array(), "malformed job trace");
      if (ev != nullptr && ev->is_array()) {
        events.insert(events.end(), ev->as_array().begin(), ev->as_array().end());
      }
    };
    append(setup_sink.to_json());
    for (const TraceSink& c : client_sinks) append(c.to_json());
    for (const Sample& s : samples) {
      if (s.traced) append(s.trace_text);
    }
    JsonValue doc{JsonObject{}};
    doc.set("displayTimeUnit", "ms");
    doc.set("traceEvents", JsonValue(std::move(events)));
    const std::string text = doc.serialise();
    std::string error;
    check(json_well_formed(text, &error), "trace JSON: " + error);
    const std::string path = args.work_dir + "/" + w.name + ".trace.json";
    std::ofstream f(path);
    f << text;
    check(static_cast<bool>(f), "cannot write " + path);
    std::printf("trace %s\n", path.c_str());
  }
  // End-to-end metrics, raw (speed 1) or at the reference host speed.
  const auto end_to_end = [&](bool at_reference) {
    const auto scaled = [&](double v, double speed) { return at_reference ? v * speed : v; };
    std::vector<double> latency, pass_ms, setup;
    for (const auto& runs : by_job(samples, jobs.size(), false)) {
      std::vector<double> l;
      for (const Sample* s : runs) l.push_back(scaled(s->latency_ms, s->speed));
      pass_ms.push_back(median(l));
      if (w.server) latency.insert(latency.end(), l.begin(), l.end());
    }
    // Batch cells run one after another, so a pass takes the sum of its
    // cells, and each cell counts once in the latency quantiles. Server
    // jobs overlap, so a pass takes jobs / throughput.
    double wall_s = 0.0;
    for (const double ms : pass_ms) wall_s += ms / 1000.0;
    if (w.server) {
      wall_s = scaled(static_cast<double>(jobs.size()) * elapsed_s / samples.size(), run_speed);
    } else {
      latency = pass_ms;
    }
    for (std::size_t k = 0; k < setup_s.size(); ++k) {
      setup.push_back(scaled(setup_s[k], setup_speed[k]));
    }
    return std::vector<Metric>{
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"job_p50_ms", quantile(latency, 0.5), "ms"},
        {"job_p90_ms", quantile(latency, 0.9), "ms"},
    };
  };
  if (!args.trace) raw = end_to_end(false);
  const std::vector<Metric> metrics =
      args.trace ? at_reference_speed(raw, run_speed) : end_to_end(true);
  const std::vector<Metric> quality = quality_metrics(jobs, first);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const Sample* s : first) digest = fnv1a(digest, s->flow_text);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx", static_cast<unsigned long long>(digest));

  // A sample fails when any of its checks failed; each run-level check
  // counts as one more attempt.
  std::vector<std::string> failures = check.failures;
  int failed = static_cast<int>(check.failures.size());
  for (const Sample& s : samples) {
    if (s.failures.empty()) continue;
    ++failed;
    for (const std::string& f : s.failures) failures.push_back(job_label(jobs[s.job]) + ": " + f);
  }
  const int attempted = static_cast<int>(samples.size()) + check.attempted;
  const bool correct = failed == 0;
  const bool gating = host.nproc >= w.busy_threads;

  // ---- report ----
  std::printf(
      "flowbench %s seed=%llu trace=%d seconds=%g%s: %zu jobs, %zu samples in %.2f s, %zu set-ups\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, args.seconds,
      args.smoke ? " smoke" : "", jobs.size(), samples.size(), elapsed_s, setup_s.size());
  std::printf("host nproc=%d simd=%s lane_width=%d build=%s compiler=%s load_1m=%.2f gating=%s\n",
              host.nproc, host.simd.c_str(), host.lane_width, FLOWBENCH_BUILD_TYPE, __VERSION__,
              host.load_1m, gating ? "true" : "false");
  std::printf("probe: median %.4f ms over %zu readings, reference %.4f ms\n", median(probes),
              probes.size(), kReferenceProbeMs);
  std::printf("digest %s\n", digest_hex);
  if (args.trace) {
    std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, st] : spans) {
      std::printf("%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
    }
  }
  for (const Metric& m : quality) {
    std::printf("quality %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %s %.10g %s (raw %.10g)\n", m.name.c_str(), m.value, m.unit.c_str(),
                raw[i].value);
  }
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());

  if (!args.out.empty()) {
    JsonValue host_json{JsonObject{}};
    host_json.set("nproc", host.nproc);
    host_json.set("simd_backend", host.simd);
    host_json.set("lane_width", host.lane_width);
    host_json.set("build_type", FLOWBENCH_BUILD_TYPE);
    host_json.set("compiler", __VERSION__);
    host_json.set("load_1m", host.load_1m);
    host_json.set("probe_ms", median(probes));
    host_json.set("reference_probe_ms", kReferenceProbeMs);
    JsonValue rec{JsonObject{}};
    rec.set("workload", w.name);
    rec.set("seed", std::to_string(args.seed));
    rec.set("trace", args.trace);
    rec.set("seconds", args.seconds);
    rec.set("smoke", args.smoke);
    rec.set("host", std::move(host_json));
    rec.set("gating", gating);
    rec.set("correct", correct);
    rec.set("attempted", attempted);
    rec.set("failed", failed);
    rec.set("failed_pct", 100.0 * failed / attempted);
    rec.set("digest", std::string(digest_hex));
    rec.set("jobs", static_cast<std::int64_t>(jobs.size()));
    rec.set("samples", static_cast<std::int64_t>(samples.size()));
    rec.set("setups", static_cast<std::int64_t>(setup_s.size()));
    rec.set("metrics", metrics_json(metrics));
    rec.set("raw_metrics", metrics_json(raw));
    rec.set("quality", metrics_json(quality));
    rec.set("failures", JsonValue(JsonArray(failures.begin(), failures.end())));
    std::ofstream f(args.out);
    f << rec.serialise() << "\n";
    if (!f) std::fprintf(stderr, "flowbench: cannot write %s\n", args.out.c_str());
  }

  JsonValue line{JsonObject{}};
  line.set("correct", correct);
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", metrics_json(metrics));
  std::printf("%s\n", line.serialise().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: flowbench --workload NAME --seed S --seconds T [--trace 0|1]\n"
                 "                 [--work-dir DIR] [--out FILE] [--smoke]\n"
                 "workloads: paper_layout paper_atpg atspeed_lbist server_mixed\n");
    return 2;
  }
  set_log_level(LogLevel::kWarn);
  return run(*args);
}
