#include "server/flow_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "soc/soc.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace tpi {
namespace {

using Clock = std::chrono::steady_clock;

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

FlowServer::FlowServer(const FlowConfig& base)
    : FlowServer(base, [&base] {
        FlowServerOptions o;
        o.workers = base.effective_bench_jobs();
        o.cache_mb = base.server_cache_mb;
        o.socket_path = base.server_socket;
        o.max_queue_depth = base.server_queue_limit;
        return o;
      }()) {}

FlowServer::FlowServer(const FlowConfig& base, FlowServerOptions opts)
    : base_(base),
      opts_(std::move(opts)),
      lib_(make_phl130_library()),
      recorder_(base_.ledger) {
  cache_ = std::make_unique<DesignCache>(
      *lib_, static_cast<std::size_t>(opts_.cache_mb) << 20, &metrics_);
  const int workers = opts_.workers > 0
                          ? opts_.workers
                          : static_cast<int>(ThreadPool::default_concurrency());
  pool_ = std::make_unique<ThreadPool>(static_cast<unsigned>(workers));
}

FlowServer::~FlowServer() { stop(); }

std::shared_ptr<FlowServer::Job> FlowServer::find_job(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void FlowServer::run_job(const std::shared_ptr<Job>& job) {
  const std::uint64_t wait_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - job->submitted)
          .count());
  metrics_.observe("server.queue_wait_ns", static_cast<double>(wait_ns));
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->queue_wait_ns = wait_ns;
    if (job->cancel.load()) {
      job->state = JobState::kCancelled;
      metrics_.add("server.jobs_cancelled");
      job_cv_.notify_all();
      return;
    }
    job->state = JobState::kRunning;
  }
  job_cv_.notify_all();
  if (opts_.on_job_start) opts_.on_job_start(job->id);

  // Per-job flight recorder: spans from this worker thread land in the
  // job's private sink instead of the global TPI_TRACE log, so concurrent
  // traced jobs never interleave. The label (trace process row, ledger
  // line) follows the sweep grid conventions.
  const FlowConfig& cfg = job->config;
  const std::string label =
      cfg.soc.cores > 0
          ? soc_run_label(cfg.soc.cores, cfg.soc.tam_width, cfg.options.tp_percent)
          : run_label(cfg.profile, cfg.options.tp_percent);
  const RunRecorder::Trace trace(cfg.record_trace || !cfg.trace_dir.empty(), job->id, label);

  std::string flow_json;
  std::string error;
  bool cancelled = false;
  try {
    if (cfg.soc.cores > 0) {
      // SOC job: per-core flows on a private pool (this thread is itself a
      // pool worker and the pool has no work stealing, so nesting core
      // tasks onto pool_ could deadlock); the daemon's design cache is
      // shared, so repeated chips hit warm cores.
      const SocRunner runner(cfg);
      SocResult res;
      trace.run([&] { res = runner.run(*lib_, nullptr, cache_.get(), &job->cancel); });
      cancelled = res.cancelled;
      const JsonValue flow = soc_result_to_json_value(res);
      flow_json = flow.serialise();
      metrics_.observe("server.soc.chip_tat_cycles",
                       static_cast<double>(res.chip_tat_cycles));
      if (!cancelled) {
        metrics_.add("server.soc.jobs_done");
        recorder_.append(label, cfg, flow);
      }
    } else {
      CircuitProfile profile;
      std::string perr;
      if (!cfg.resolve_profile(profile, &perr)) throw std::invalid_argument(perr);
      const std::shared_ptr<DesignCache::Entry> entry = cache_->acquire(profile);
      Netlist nl = entry->netlist();  // private copy; the edit version survives
      FlowEngine engine(nl, profile, cfg.options);
      engine.design_db().adopt_views_from(entry->db());
      engine.set_cancel_token(&job->cancel);
      trace.run([&] { engine.run(cfg.stages); });
      const FlowResult& res = engine.result();
      cancelled = res.cancelled;
      // Build, serialise and drop the JSON tree while the engine is still
      // alive: a tree that outlived the engine's teardown raised the
      // server's peak RSS by ~2 MiB on flowbench's server_mixed (4-vCPU
      // x86 VM, glibc malloc).
      const JsonValue flow = flow_result_to_json_value(res);
      flow_json = flow.serialise();
      if (!cancelled) recorder_.append(label, cfg, flow);
      for (const Stage s : kAllStages) {
        if (!engine.stage_ran(s)) continue;
        metrics_.observe(std::string("server.stage_ms.") + stage_name(s),
                         res.timings[s]);
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::string trace_json = trace.to_json();
  trace.write(cfg.trace_dir, "job_" + std::to_string(job->id));

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->trace_json = std::move(trace_json);
    if (!error.empty()) {
      job->error = error;
      job->state = JobState::kFailed;
    } else {
      job->flow_json = std::move(flow_json);
      job->state = cancelled ? JobState::kCancelled : JobState::kDone;
    }
    switch (job->state) {
      case JobState::kDone: metrics_.add("server.jobs_done"); break;
      case JobState::kFailed: metrics_.add("server.jobs_failed"); break;
      case JobState::kCancelled: metrics_.add("server.jobs_cancelled"); break;
      default: break;
    }
  }
  job_cv_.notify_all();
}

std::string FlowServer::handle_request(const std::string& line) {
  JsonValue id;  // null until the request yields one
  const auto respond = [&id](JsonValue result) {
    JsonValue resp{JsonObject{}};
    resp.set("id", id);
    resp.set("result", std::move(result));
    return resp.serialise();
  };
  const auto fail = [&id](const std::string& message) {
    JsonValue resp{JsonObject{}};
    resp.set("id", id);
    resp.set("error", message);
    return resp.serialise();
  };

  const JsonParseResult parsed = json_parse(line);
  if (!parsed.ok) return fail("parse error: " + parsed.error);
  if (!parsed.value.is_object()) return fail("request must be a JSON object");
  if (const JsonValue* v = parsed.value.find("id")) id = *v;
  const JsonValue* method = parsed.value.find("method");
  if (method == nullptr || !method->is_string()) return fail("missing \"method\" string");
  const JsonValue* params = parsed.value.find("params");
  const std::string& name = method->as_string();

  const auto job_param = [&](std::shared_ptr<Job>& out, std::string* err) {
    const JsonValue* j = params != nullptr ? params->find("job") : nullptr;
    if (j == nullptr || !j->is_number()) {
      *err = "params.job: expected a job id";
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    out = find_job(static_cast<std::uint64_t>(j->as_number()));
    if (out == nullptr) {
      *err = "unknown job " + std::to_string(static_cast<std::uint64_t>(j->as_number()));
      return false;
    }
    return true;
  };

  if (name == "submit") {
    const std::string params_text =
        params != nullptr ? params->serialise() : std::string("{}");
    FlowConfig cfg;
    std::string err;
    if (!FlowConfig::from_json(params_text, base_, cfg, &err)) return fail(err);
    // SOC jobs compose cores from the whole paper set; the "profile" key
    // is ignored for them, so only single-core submissions vet it here.
    if (cfg.soc.cores == 0) {
      CircuitProfile profile;
      if (!cfg.resolve_profile(profile, &err)) return fail(err);
    }

    // Admission control: reject instead of queueing when the pool backlog
    // is at the limit. The depth is advisory (another submit may race in),
    // but the bound holds: a job is only enqueued after this check.
    if (opts_.max_queue_depth > 0) {
      const std::size_t depth = pool_->pending();
      if (depth >= static_cast<std::size_t>(opts_.max_queue_depth)) {
        metrics_.add("server.jobs_rejected");
        JsonValue resp{JsonObject{}};
        resp.set("id", id);
        resp.set("error", "queue_full");
        resp.set("queue_depth", static_cast<std::int64_t>(depth));
        resp.set("queue_limit", opts_.max_queue_depth);
        return resp.serialise();
      }
    }

    auto job = std::make_shared<Job>();
    job->config = std::move(cfg);
    job->submitted = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_requested_ || stopping_) return fail("server is shutting down");
      job->id = next_job_id_++;
      jobs_[job->id] = job;
      ++jobs_submitted_;
    }
    try {
      pool_->submit_prioritized(job->config.priority, [this, job] { run_job(job); });
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      job->state = JobState::kFailed;
      job->error = e.what();
    }
    JsonValue result{JsonObject{}};
    result.set("job", static_cast<std::int64_t>(job->id));
    result.set("state", job_state_name(JobState::kQueued));
    return respond(std::move(result));
  }

  if (name == "status") {
    std::shared_ptr<Job> job;
    std::string err;
    if (!job_param(job, &err)) return fail(err);
    std::lock_guard<std::mutex> lock(mu_);
    JsonValue result{JsonObject{}};
    result.set("job", static_cast<std::int64_t>(job->id));
    result.set("state", job_state_name(job->state));
    result.set("priority", job->config.priority);
    if (job->state != JobState::kQueued) {
      result.set("queue_wait_ns", static_cast<std::int64_t>(job->queue_wait_ns));
    }
    return respond(std::move(result));
  }

  if (name == "cancel") {
    std::shared_ptr<Job> job;
    std::string err;
    if (!job_param(job, &err)) return fail(err);
    job->cancel.store(true);
    std::lock_guard<std::mutex> lock(mu_);
    JsonValue result{JsonObject{}};
    result.set("job", static_cast<std::int64_t>(job->id));
    result.set("state", job_state_name(job->state));
    result.set("cancel_requested", true);
    return respond(std::move(result));
  }

  if (name == "result") {
    std::shared_ptr<Job> job;
    std::string err;
    if (!job_param(job, &err)) return fail(err);
    const JsonValue* w = params != nullptr ? params->find("wait") : nullptr;
    const bool wait = w != nullptr && w->is_bool() && w->as_bool();
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) {
      job_cv_.wait(lock, [&] { return job_state_terminal(job->state) || stopping_; });
    }
    JsonValue result{JsonObject{}};
    result.set("job", static_cast<std::int64_t>(job->id));
    result.set("state", job_state_name(job->state));
    result.set("queue_wait_ns", static_cast<std::int64_t>(job->queue_wait_ns));
    if (!job->flow_json.empty()) {
      const JsonParseResult flow = json_parse(job->flow_json);
      if (flow.ok) result.set("flow", flow.value);
    }
    if (job->state == JobState::kFailed) result.set("error", job->error);
    return respond(std::move(result));
  }

  if (name == "stats") {
    const DesignCache::Stats cs = cache_->stats();
    const MetricsSnapshot snap = metrics_.snapshot();
    JsonValue result{JsonObject{}};
    result.set("server.cache.hits", static_cast<std::int64_t>(cs.hits));
    result.set("server.cache.misses", static_cast<std::int64_t>(cs.misses));
    result.set("server.cache.evictions", static_cast<std::int64_t>(cs.evictions));
    result.set("server.cache.bytes", static_cast<std::int64_t>(cs.bytes));
    result.set("server.cache.entries", static_cast<std::int64_t>(cs.entries));
    if (const MetricValue* h = snap.find("server.queue_wait_ns")) {
      JsonValue wait{JsonObject{}};
      wait.set("count", static_cast<std::int64_t>(h->hist.count));
      wait.set("sum", h->hist.sum);
      wait.set("max", h->hist.max);
      result.set("server.queue_wait_ns", std::move(wait));
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t by_state[5] = {0, 0, 0, 0, 0};
    for (const auto& [jid, job] : jobs_) ++by_state[static_cast<int>(job->state)];
    JsonValue jobs{JsonObject{}};
    jobs.set("submitted", static_cast<std::int64_t>(jobs_submitted_));
    for (const JobState s : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                             JobState::kFailed, JobState::kCancelled}) {
      jobs.set(job_state_name(s), by_state[static_cast<int>(s)]);
    }
    result.set("jobs", std::move(jobs));
    result.set("workers", static_cast<std::int64_t>(pool_->size()));
    return respond(std::move(result));
  }

  if (name == "metrics") {
    // Server-owned registry (cache counters, queue wait, per-stage wall
    // time) in Prometheus text format by default, or as the registry's
    // JSON when params.format == "json".
    const JsonValue* f = params != nullptr ? params->find("format") : nullptr;
    const std::string format = f != nullptr && f->is_string() ? f->as_string()
                                                              : std::string("prometheus");
    const MetricsSnapshot snap = metrics_.snapshot();
    JsonValue result{JsonObject{}};
    if (format == "prometheus") {
      result.set("prometheus", snap.to_prometheus());
    } else if (format == "json") {
      const JsonParseResult m = json_parse(snap.to_json(MetricsSnapshot::kWithRuntime));
      result.set("metrics", m.ok ? m.value : JsonValue(JsonObject{}));
    } else {
      return fail("params.format: expected \"prometheus\" or \"json\"");
    }
    return respond(std::move(result));
  }

  if (name == "trace") {
    std::shared_ptr<Job> job;
    std::string err;
    if (!job_param(job, &err)) return fail(err);
    std::string trace_json;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job_state_terminal(job->state)) {
        return fail("job " + std::to_string(job->id) + " still " +
                    job_state_name(job->state));
      }
      trace_json = job->trace_json;
    }
    if (trace_json.empty()) {
      return fail("no trace recorded for job " + std::to_string(job->id) +
                  " (submit with \"record_trace\": true)");
    }
    const JsonParseResult trace = json_parse(trace_json);
    if (!trace.ok) return fail("recorded trace is malformed: " + trace.error);
    JsonValue result{JsonObject{}};
    result.set("job", static_cast<std::int64_t>(job->id));
    result.set("trace", trace.value);
    return respond(std::move(result));
  }

  if (name == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
    JsonValue result{JsonObject{}};
    result.set("ok", true);
    return respond(std::move(result));
  }

  return fail("unknown method \"" + name + "\"");
}

bool FlowServer::listen(std::string* error) {
  const auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg + ": " + std::strerror(errno);
    return false;
  };
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + opts_.socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return set_error("socket");
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return set_error("bind " + opts_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return set_error("listen");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info() << "flow server listening on " << opts_.socket_path;
  return true;
}

void FlowServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd closed by stop()
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void FlowServer::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      if (line.empty()) continue;
      if (!send_all(fd, handle_request(line) + '\n')) break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(fd);
}

void FlowServer::wait_until_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

void FlowServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  shutdown_cv_.notify_all();
  job_cv_.notify_all();  // release result-wait RPCs

  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  pool_.reset();  // drains queued jobs; all futures complete
  if (listen_fd_ >= 0) {
    ::unlink(opts_.socket_path.c_str());
    listen_fd_ = -1;
  }
}

}  // namespace tpi
