// Thread-safe, low-overhead hierarchical span tracer.
//
// TPI_SPAN("name") opens an RAII span: begin/end timestamps plus the
// emitting thread land in a TraceSink, the one span buffer. Nesting falls
// out of scoping: an inner span's interval is contained in the enclosing
// one, which is exactly how chrome://tracing / Perfetto render stacks of
// "X" events on one thread track.
//
// A span is recorded only where someone will read it: into the thread's
// innermost scoped sink (ScopedTraceSink), else into the process sink
// while set_trace_enabled(true) / TPI_TRACE=<path> holds, else nowhere.
// The process sink (pid 1) is what trace_to_json / trace_event_count /
// trace_reset read, and what TPI_TRACE writes at process exit.
//
// Per-job flight recording: concurrent flow jobs (server jobs, sweep
// cells) each scope a sink of their own, so their traces never
// interleave. A live scope also turns tracing on by itself, so per-job
// recording needs no process-wide enable. Spans from threads with no
// scope (fault-sim pool workers of a traced job, untraced jobs running
// beside it) are dropped unless the process sink is on.
//
// When nobody records (the default) a span costs one relaxed atomic load
// and a branch — no clock read, no allocation — so TPI_SPAN can stay in
// hot paths permanently.
//
// Span names must outlive the export (string literals in practice): the
// sink stores the pointer, never a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tpi {

class TraceSink;

namespace trace_detail {

/// > 0 when any thread may record: the process switch counts 1, every
/// live ScopedTraceSink counts 1.
extern std::atomic<int> g_enabled;

/// Monotonic timestamp (steady clock) in nanoseconds.
std::uint64_t now_ns();

/// Where the calling thread's spans go: its innermost scoped sink, else
/// the process sink while the process switch is on, else nullptr (drop).
TraceSink* target();

}  // namespace trace_detail

/// True while any thread may record (the fast filter every span reads).
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed) != 0;
}
/// Process-wide switch: spans of threads with no scoped sink go to the
/// process sink while it is on.
void set_trace_enabled(bool enabled);

/// Zero-duration marker event (phase ticks), recorded or dropped like a
/// span.
void trace_instant(const char* name);

/// Spans in the process sink (tests, sizing). Spans captured by a scoped
/// sink are counted by its TraceSink::event_count().
std::size_t trace_event_count();

/// Drop the spans recorded in the process sink.
void trace_reset();

/// Chrome trace-event JSON ({"traceEvents": [...]}) of the process sink:
/// pid 1, a "tpi" process_name row, then the spans; loadable in
/// chrome://tracing and Perfetto.
std::string trace_to_json();

/// trace_to_json() written to `path`; false + warning on I/O failure.
bool trace_write_json(const std::string& path);

/// TPI_TRACE=<path>: enable tracing now and write the JSON to <path> at
/// process exit (idempotent). Returns the path, or nullptr when unset.
const char* trace_init_from_env();

/// Span buffer: one per traced job, plus the process sink. Spans recorded
/// while a ScopedTraceSink for it is active land here, tagged with the
/// sink's job id (the Chrome-trace "pid") and label (the process_name
/// metadata row), so exports contain only that job's spans. Thread-safe:
/// a sink may be scoped on several threads at once, though the typical
/// pattern is one sink per job thread.
class TraceSink {
 public:
  /// `job_id` becomes the export's pid (chrome://tracing groups tracks by
  /// it); `label` names the process row ("s38417/tp=2", "job 7").
  explicit TraceSink(std::uint64_t job_id = 1, std::string label = "");

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  std::uint64_t job_id() const { return job_id_; }
  const std::string& label() const { return label_; }

  /// Spans captured so far.
  std::size_t event_count() const;

  /// Chrome trace-event JSON of this sink's spans only, after one
  /// process_name metadata event carrying `label`.
  std::string to_json() const;

  /// Record one span of the calling thread (used by TraceSpan).
  void append(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

 private:
  friend void trace_reset();

  struct Event {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::uint32_t tid;
  };

  std::uint64_t job_id_;
  std::string label_;
  std::uint64_t epoch_ns_;  ///< ts origin: sink construction time
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Redirect span recording on the current thread into `sink` for the
/// lifetime of the scope (nestable; the innermost sink wins). Other
/// threads are not redirected.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink);
  ~ScopedTraceSink();
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

/// The calling thread's innermost scoped sink, or nullptr. Work handed to
/// another thread scopes the same sink there to stay in the job's trace.
TraceSink* scoped_trace_sink();

/// RAII span. Prefer the TPI_SPAN macro; construct directly only when the
/// name is computed (it must still outlive the export). The sink is
/// chosen when the span opens and must outlive the span.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name),
        sink_(trace_enabled() ? trace_detail::target() : nullptr),
        begin_ns_(sink_ != nullptr ? trace_detail::now_ns() : 0) {}
  ~TraceSpan() {
    if (sink_ != nullptr) sink_->append(name_, begin_ns_, trace_detail::now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  TraceSink* sink_;
  std::uint64_t begin_ns_;
};

}  // namespace tpi

#define TPI_SPAN_CONCAT2(a, b) a##b
#define TPI_SPAN_CONCAT(a, b) TPI_SPAN_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define TPI_SPAN(name) ::tpi::TraceSpan TPI_SPAN_CONCAT(tpi_span_, __LINE__)(name)
