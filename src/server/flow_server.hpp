// Flow-as-a-service: a long-lived daemon running Fig. 2 flows on demand.
//
// The server accepts newline-delimited JSON-RPC requests — one JSON object
// per line, one response line per request (schema in DESIGN.md §12):
//
//   {"id": 1, "method": "submit", "params": { ...FlowConfig JSON... }}
//   {"id": 1, "result": {"job": 7, "state": "queued"}}
//
// Methods: submit, status, cancel, result, stats, metrics, trace,
// shutdown. `params` of
// submit is a FlowConfig object layered over the server's base config
// (FlowConfig::from_json), so per-request values always beat the daemon's
// environment. Jobs are scheduled on the shared ThreadPool with the
// config's `priority` (higher first, FIFO within a level) and run with
// cooperative cancellation: the cancel RPC flips the job's token, which
// FlowEngine re-checks at every stage boundary.
//
// Each job runs against a private copy of a DesignCache entry's golden
// netlist with the entry's warm views adopted, so repeat requests for one
// profile skip circuit generation and the first topo/comb/testability
// build. Results are bit-identical to a single-shot FlowEngine run of the
// same FlowConfig: flow_result_to_json() serialises the deterministic
// subset and excludes the designdb.* counters, which are the one place a
// warm cache legitimately (and deterministically) differs from a cold run.
//
// The JSON-RPC core (handle_request) is transport-free and fully
// thread-safe; listen() adds the AF_UNIX front end (one accept thread,
// one thread per connection). Tests drive handle_request in process, the
// daemon binary and the load-test bench go through the socket.
//
// Telemetry (PR 8, DESIGN.md §14): a job submitted with "record_trace"
// (or while the server's config carries a trace_dir) runs under its own
// TraceSink, so its spans never interleave with other jobs'; the `trace`
// RPC returns that Chrome-trace JSON and, when trace_dir is set, the
// server also writes <trace_dir>/job_<id>.trace.json. The `metrics` RPC
// exposes the server-owned registry — cache counters, queue-wait and
// per-stage wall-time histograms with p50/p95/p99 — as Prometheus text
// (default) or JSON; tools/tpi_top.py polls it. When the config carries a
// ledger path (TPI_LEDGER), every job that finishes kDone appends its
// deterministic flow result + config fingerprint to the run ledger.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "flow/flow_json.hpp"  // flow_result_to_json (moved in PR 8)
#include "flow/run_recorder.hpp"
#include "circuits/design_cache.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace tpi {

enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* job_state_name(JobState state);
inline bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
}

struct FlowServerOptions {
  int workers = 0;    ///< flow worker threads (<= 0: hardware concurrency)
  int cache_mb = 256; ///< DesignCache budget
  std::string socket_path = "tpi_server.sock";
  /// Admission control: a submit arriving while this many jobs already
  /// wait in the pool queue (not yet running) is rejected with a
  /// structured "queue_full" error carrying the current depth, instead of
  /// queueing unboundedly. 0 = unlimited (the seed behavior). From
  /// FlowConfig::server_queue_limit / TPI_SERVER_QUEUE_LIMIT.
  int max_queue_depth = 0;
  /// Test hook: called on the worker thread right after a job leaves the
  /// queue (state already kRunning), before any flow work. May block —
  /// tests use it to gate scheduling deterministically.
  std::function<void(std::uint64_t job_id)> on_job_start;
};

class FlowServer {
 public:
  /// Options derived from `base`: workers = effective_bench_jobs(),
  /// cache_mb / socket_path from the server_* fields. `base` is also the
  /// layer submit params are applied over.
  explicit FlowServer(const FlowConfig& base);
  FlowServer(const FlowConfig& base, FlowServerOptions opts);
  ~FlowServer();

  FlowServer(const FlowServer&) = delete;
  FlowServer& operator=(const FlowServer&) = delete;

  /// Dispatch one JSON-RPC request line, returning the response line
  /// (without trailing newline). Never throws; protocol errors come back
  /// as {"id":...,"error":"..."}. Thread-safe.
  std::string handle_request(const std::string& line);

  /// Bind the unix socket and start serving connections. False (with
  /// *error set) on socket errors; the path is unlinked first.
  bool listen(std::string* error = nullptr);
  /// Block until a shutdown RPC arrives (or stop() is called).
  void wait_until_shutdown();
  /// Stop the socket front end and drain queued jobs. Idempotent.
  void stop();

  const std::string& socket_path() const { return opts_.socket_path; }
  const CellLibrary& library() const { return *lib_; }
  DesignCache::Stats cache_stats() const { return cache_->stats(); }
  /// Snapshot of the server-owned registry: server.cache.* counters and
  /// the server.queue_wait_ns histogram.
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

 private:
  struct Job {
    std::uint64_t id = 0;
    FlowConfig config;
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point submitted;
    // Guarded by FlowServer::mu_.
    JobState state = JobState::kQueued;
    std::uint64_t queue_wait_ns = 0;
    std::string flow_json;   ///< flow_result_to_json payload once terminal
    std::string trace_json;  ///< per-job Chrome trace once terminal (if recorded)
    std::string error;       ///< set when state == kFailed
  };

  void run_job(const std::shared_ptr<Job>& job);
  std::shared_ptr<Job> find_job(std::uint64_t id);
  void accept_loop();
  void serve_connection(int fd);

  FlowConfig base_;
  FlowServerOptions opts_;
  std::unique_ptr<CellLibrary> lib_;
  MetricsRegistry metrics_;  ///< server-owned: server.* metrics only
  std::unique_ptr<DesignCache> cache_;
  RunRecorder recorder_;  ///< ledger from the base config's path (if any)
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable job_cv_;       ///< signalled on any job state change
  std::condition_variable shutdown_cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t jobs_submitted_ = 0;
  bool shutdown_requested_ = false;
  bool stopping_ = false;

  // Socket front end.
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;  ///< signalled when a connection closes
  std::unordered_set<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace tpi
