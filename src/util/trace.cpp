#include "util/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

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

struct Registry {
  TraceSink sink{1, "tpi"};     ///< the process sink
  std::atomic<bool> on{false};  ///< the set_trace_enabled switch
  std::mutex mu;                ///< guards atexit_path
  std::string atexit_path;      ///< TPI_TRACE target ("" = none)
};

Registry& registry() {
  static Registry* r = new Registry;  // never destroyed: threads may outlive exit order
  return *r;
}

// Innermost scoped sink on this thread; spans route here when non-null.
thread_local TraceSink* t_sink = nullptr;

// Chrome-trace "tid" of the calling thread: 1, 2, ... in order of first span.
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

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

TraceSink* target() {
  if (t_sink != nullptr) return t_sink;
  Registry& reg = registry();
  return reg.on.load(std::memory_order_relaxed) ? &reg.sink : nullptr;
}

}  // namespace trace_detail

void set_trace_enabled(bool enabled) {
  using namespace trace_detail;
  // Only the call that flips the switch moves the count: one share at most.
  if (registry().on.exchange(enabled) == enabled) return;
  g_enabled.fetch_add(enabled ? 1 : -1, std::memory_order_relaxed);
}

void trace_instant(const char* name) {
  if (!trace_enabled()) return;
  if (TraceSink* sink = trace_detail::target(); sink != nullptr) {
    const std::uint64_t t = trace_detail::now_ns();
    sink->append(name, t, t);
  }
}

std::size_t trace_event_count() { return trace_detail::registry().sink.event_count(); }

void trace_reset() {
  TraceSink& sink = trace_detail::registry().sink;
  std::lock_guard<std::mutex> lock(sink.mu_);
  std::vector<TraceSink::Event>().swap(sink.events_);  // frees the buffer too
}

std::string trace_to_json() { return trace_detail::registry().sink.to_json(); }

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

void TraceSink::append(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns) {
  const std::uint32_t tid = trace_detail::thread_id();
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

TraceSink* scoped_trace_sink() { return trace_detail::t_sink; }

ScopedTraceSink::ScopedTraceSink(TraceSink& sink) : prev_(trace_detail::t_sink) {
  trace_detail::t_sink = &sink;
  trace_detail::g_enabled.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceSink::~ScopedTraceSink() {
  trace_detail::g_enabled.fetch_sub(1, std::memory_order_relaxed);
  trace_detail::t_sink = prev_;
}

}  // namespace tpi
