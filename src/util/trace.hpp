// Thread-safe, low-overhead hierarchical span tracer.
//
// TPI_SPAN("name") opens an RAII span: begin/end timestamps plus the
// emitting thread land in a per-thread single-writer append log (chunked,
// lock-free — the writer never takes a lock, publication is a
// release-store of the chunk fill count). Nesting falls out of scoping:
// an inner span's interval is contained in the enclosing one, which is
// exactly how chrome://tracing / Perfetto render stacks of "X" events on
// one thread track.
//
// When tracing is disabled (the default) a span costs one relaxed atomic
// load and a branch — no clock read, no allocation — so TPI_SPAN can stay
// in hot paths permanently. Enable with set_trace_enabled(true), or let
// trace_init_from_env() honour TPI_TRACE=<path> (enables tracing and
// writes the Chrome trace-event JSON at process exit).
//
// Per-job flight recording: a TraceSink is a private span buffer. While a
// ScopedTraceSink is active on a thread, every span that thread records
// lands in the sink instead of the process-global log, so concurrent flow
// jobs (server jobs, sweep cells) each capture their own trace — the fix
// for two traced jobs interleaving in one TPI_TRACE file. An active sink
// also enables tracing on its own (refcounted into the same flag the
// global switch uses), so per-job recording needs no process-wide enable.
// Spans emitted by inner worker pools (fault-sim bank threads) have no
// sink scope and keep landing in the global log.
//
// Span names must outlive the export (string literals in practice): the
// log stores the pointer, never a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tpi {

namespace trace_detail {

/// > 0 when any enable source is active: the manual/env switch counts 1,
/// every live ScopedTraceSink counts 1.
extern std::atomic<int> g_enabled;

/// Monotonic timestamp (steady clock) in nanoseconds.
std::uint64_t now_ns();

/// Append one complete span to the calling thread's sink (when scoped) or
/// the thread's global log.
void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

}  // namespace trace_detail

/// Global on/off switch read by every span on construction.
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed) != 0;
}
void set_trace_enabled(bool enabled);

/// Zero-duration marker event (observer callbacks, phase ticks). No-op
/// when tracing is disabled.
void trace_instant(const char* name);

/// Spans recorded so far across all threads in the *global* log (tests,
/// sizing). Sink-captured spans are counted by TraceSink::event_count().
std::size_t trace_event_count();

/// Drop all recorded global-log spans (thread registrations survive). Only
/// call when no thread is concurrently recording — e.g. after worker pools
/// joined.
void trace_reset();

/// Chrome trace-event JSON ({"traceEvents": [...]}) of everything
/// recorded so far in the global log; loadable in chrome://tracing and
/// Perfetto.
std::string trace_to_json();

/// trace_to_json() written to `path`; false + warning on I/O failure.
bool trace_write_json(const std::string& path);

/// TPI_TRACE=<path>: enable tracing now and write the JSON to <path> at
/// process exit (idempotent). Returns the path, or nullptr when unset.
const char* trace_init_from_env();

/// Private span buffer for one job: spans recorded while a
/// ScopedTraceSink for it is active land here, tagged with the sink's
/// job id (the Chrome-trace "pid") and label (the process_name metadata
/// row), so exports contain only that job's spans. Thread-safe: a sink
/// may be scoped on several threads at once, though the typical pattern
/// is one sink per job thread.
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

  /// Chrome trace-event JSON of this sink's spans only (same schema as
  /// trace_to_json, plus a process_name metadata event carrying `label`).
  std::string to_json() const;

  /// Used by trace_detail::record; not part of the public surface.
  void append(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::uint32_t tid);

 private:
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
/// lifetime of the scope (nestable; the innermost sink wins). Also
/// enables tracing while alive, so a per-job recorder works without the
/// process-wide switch.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink);
  ~ScopedTraceSink();
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

/// RAII span. Prefer the TPI_SPAN macro; construct directly only when the
/// name is computed (it must still outlive the export).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(trace_enabled() ? name : nullptr),
        begin_ns_(name_ != nullptr ? trace_detail::now_ns() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) trace_detail::record(name_, begin_ns_, trace_detail::now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t begin_ns_;
};

}  // namespace tpi

#define TPI_SPAN_CONCAT2(a, b) a##b
#define TPI_SPAN_CONCAT(a, b) TPI_SPAN_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define TPI_SPAN(name) ::tpi::TraceSpan TPI_SPAN_CONCAT(tpi_span_, __LINE__)(name)
