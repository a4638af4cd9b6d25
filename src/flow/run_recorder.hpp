// Per-run telemetry shared by every producer of flow runs: SweepRunner
// cells, SocSweepRunner chips and FlowServer jobs. While a run executes,
// the spans its thread records go to the run's own TraceSink, so
// concurrent runs never interleave in one trace; the sink can then be
// written as <dir>/<stem>.trace.json. A finished run appends one line to
// the run ledger (util/ledger.hpp).
//
// The producers differ only in policy, which stays with them: sweeps name
// trace files sanitize_trace_label(label) and append ledger lines in
// submission order; the server names them job_<id>, takes trace_dir and
// record_trace from each job's config, and appends nothing for a
// cancelled job.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace tpi {

struct FlowConfig;
class JsonValue;
class Ledger;
class TraceSink;

/// Collision-free file-name form of a run label: `[A-Za-z0-9.=-]` bytes
/// pass through, every other byte becomes `_` + two lowercase hex digits
/// ("s38417/tp=2" -> "s38417_2ftp=2"). Because `_` itself is escaped
/// ("_5f"), the mapping is injective — two distinct labels can never land
/// in the same trace file, which the old '/'-to-'_' mapping allowed
/// ("s38417/tp=2" vs "s38417_tp=2").
std::string sanitize_trace_label(const std::string& label);

/// Grid labels, with the TP percentage printed as "%g": "s38417/tp=2" for
/// a single-core run, "soc=8/tam=32/tp=0.5" for a chip.
std::string run_label(const std::string& circuit, double tp_percent);
std::string soc_run_label(int cores, int tam_width, double tp_percent);

/// Wall-clock milliseconds elapsed since `t0`.
double ms_since(std::chrono::steady_clock::time_point t0);

class RunRecorder {
 public:
  /// The trace of one run, tagged with the run's id (the Chrome-trace pid)
  /// and label (its process_name row).
  class Trace {
   public:
    /// `enabled` false: run() only calls the body and nothing is recorded.
    Trace(bool enabled, std::uint64_t id, const std::string& label);
    ~Trace();

    /// Calls `body` on this thread with the run's sink installed.
    void run(const std::function<void()>& body) const;
    /// Chrome-trace JSON of the run; "" when disabled.
    std::string to_json() const;
    /// Writes <dir>/<stem>.trace.json, creating `dir` when missing. No-op
    /// when disabled or `dir` is empty.
    void write(const std::string& dir, const std::string& stem) const;

   private:
    std::unique_ptr<TraceSink> sink_;
  };

  /// `ledger_path` empty = no ledger (append() does nothing).
  explicit RunRecorder(const std::string& ledger_path);
  ~RunRecorder();

  bool has_ledger() const { return ledger_ != nullptr; }
  /// Appends one ledger line for a finished run: `config` is fingerprinted
  /// through FlowConfig::to_json (an empty object if that JSON does not
  /// parse back) and `result` is the run's deterministic payload.
  /// Thread-safe.
  void append(const std::string& label, const FlowConfig& config,
              const JsonValue& result) const;

 private:
  std::unique_ptr<Ledger> ledger_;
};

}  // namespace tpi
