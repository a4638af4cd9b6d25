#include "util/trace.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/json.hpp"
#include "util/log.hpp"

namespace tpi {
namespace trace_detail {

std::atomic<int> g_enabled{0};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

struct TraceEvent {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
};

// Single-writer append log: only the owning thread writes events; readers
// (export) synchronise through the release-store of `n` / `next`. A chunk
// is never shrunk or freed while its owner may still append — trace_reset
// documents the quiescence requirement.
struct Chunk {
  static constexpr std::size_t kCapacity = 4096;
  std::array<TraceEvent, kCapacity> events;
  std::atomic<std::uint32_t> n{0};
  std::atomic<Chunk*> next{nullptr};
};

struct ThreadLog {
  std::uint32_t tid = 0;
  Chunk head;
  Chunk* tail = &head;  ///< owner-thread only

  void append(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
    Chunk* c = tail;
    std::uint32_t i = c->n.load(std::memory_order_relaxed);
    if (i == Chunk::kCapacity) {
      Chunk* grown = new Chunk;
      c->next.store(grown, std::memory_order_release);
      tail = grown;
      c = grown;
      i = 0;
    }
    c->events[i] = TraceEvent{name, begin_ns, end_ns};
    c->n.store(i + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadLog*> logs;       ///< leaked on purpose: process lifetime
  std::uint64_t epoch_ns = 0;         ///< ts origin of the JSON export
  std::string atexit_path;            ///< TPI_TRACE target ("" = none)
  bool manual_enabled = false;        ///< the set_trace_enabled contribution
};

Registry& registry() {
  static Registry* r = new Registry;  // never destroyed: threads may outlive exit order
  return *r;
}

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    log = new ThreadLog;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    log->tid = static_cast<std::uint32_t>(reg.logs.size() + 1);
    reg.logs.push_back(log);
  }
  return *log;
}

// Innermost scoped sink on this thread; spans route here when non-null.
thread_local TraceSink* t_sink = nullptr;

void append_event_json(std::string& out, const char* name, std::uint64_t begin_ns,
                       std::uint64_t end_ns, std::uint32_t tid, std::uint64_t pid,
                       std::uint64_t epoch_ns) {
  char buf[256];
  const double ts_us = static_cast<double>(begin_ns - epoch_ns) / 1000.0;
  const double dur_us = static_cast<double>(end_ns - begin_ns) / 1000.0;
  std::snprintf(buf, sizeof buf,
                "{\"name\": \"%s\", \"cat\": \"tpi\", \"ph\": \"X\", \"ts\": %.3f, "
                "\"dur\": %.3f, \"pid\": %llu, \"tid\": %u}",
                name, ts_us, dur_us, static_cast<unsigned long long>(pid), tid);
  out += buf;
}

}  // namespace

void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (TraceSink* sink = t_sink; sink != nullptr) {
    sink->append(name, begin_ns, end_ns, thread_log().tid);
    return;
  }
  thread_log().append(name, begin_ns, end_ns);
}

}  // namespace trace_detail

void set_trace_enabled(bool enabled) {
  using namespace trace_detail;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (enabled == reg.manual_enabled) return;  // idempotent: one refcount share
  reg.manual_enabled = enabled;
  if (enabled) {
    if (reg.epoch_ns == 0) reg.epoch_ns = now_ns();
    g_enabled.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_enabled.fetch_sub(1, std::memory_order_relaxed);
  }
}

void trace_instant(const char* name) {
  if (!trace_enabled()) return;
  const std::uint64_t t = trace_detail::now_ns();
  trace_detail::record(name, t, t);
}

std::size_t trace_event_count() {
  using namespace trace_detail;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t total = 0;
  for (const ThreadLog* log : reg.logs) {
    for (const Chunk* c = &log->head; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      total += c->n.load(std::memory_order_acquire);
    }
  }
  return total;
}

void trace_reset() {
  using namespace trace_detail;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadLog* log : reg.logs) {
    // Free the overflow chunks; the inline head stays (its owner thread
    // caches `tail`, which we reset through the same quiescence contract).
    Chunk* c = log->head.next.exchange(nullptr, std::memory_order_acq_rel);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      delete c;
      c = next;
    }
    log->tail = &log->head;
    log->head.n.store(0, std::memory_order_release);
  }
}

std::string trace_to_json() {
  using namespace trace_detail;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const ThreadLog* log : reg.logs) {
    for (const Chunk* c = &log->head; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      const std::uint32_t n = c->n.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!first) out += ",\n";
        first = false;
        const TraceEvent& e = c->events[i];
        append_event_json(out, e.name, e.begin_ns, e.end_ns, log->tid, 1, reg.epoch_ns);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

bool trace_write_json(const std::string& path) {
  return write_text_file(path, trace_to_json(), "trace");
}

const char* trace_init_from_env() {
  using namespace trace_detail;
  const char* path = std::getenv("TPI_TRACE");
  if (path == nullptr || *path == '\0') return nullptr;
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.atexit_path.empty()) return reg.atexit_path.c_str();  // already armed
    reg.atexit_path = path;
  }
  set_trace_enabled(true);
  std::atexit([] {
    const std::string& p = registry().atexit_path;
    if (trace_write_json(p)) {
      std::fprintf(stderr, "[trace] wrote %s (%zu spans)\n", p.c_str(),
                   trace_event_count());
    }
  });
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.atexit_path.c_str();
}

// ---- TraceSink ----

TraceSink::TraceSink(std::uint64_t job_id, std::string label)
    : job_id_(job_id), label_(std::move(label)), epoch_ns_(trace_detail::now_ns()) {}

void TraceSink::append(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
                       std::uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, begin_ns, end_ns, tid});
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceSink::to_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Name the process row after the job label so chrome://tracing shows
  // which job a track belongs to. The label is caller-set and unbounded.
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " + std::to_string(job_id_) +
         ", \"args\": {\"name\": \"" + report_escape(label_) + "\"}}";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& e : events_) {
    out += ",\n";
    trace_detail::append_event_json(out, e.name, e.begin_ns, e.end_ns, e.tid, job_id_,
                                    epoch_ns_);
  }
  out += "\n]}\n";
  return out;
}

ScopedTraceSink::ScopedTraceSink(TraceSink& sink) : prev_(trace_detail::t_sink) {
  trace_detail::t_sink = &sink;
  trace_detail::g_enabled.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceSink::~ScopedTraceSink() {
  trace_detail::g_enabled.fetch_sub(1, std::memory_order_relaxed);
  trace_detail::t_sink = prev_;
}

}  // namespace tpi
