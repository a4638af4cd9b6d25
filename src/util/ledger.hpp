// Persistent run ledger: one JSONL line per completed flow run, so any
// two runs — across processes, days and machines — can be diffed.
//
// Each line is a schema-versioned envelope:
//
//   {"schema": 1, "ts": "2026-08-07T12:34:56Z", "build": "0a1c67a",
//    "label": "s38417/tp=2", "config_fp": "9bd4c1a2e1f00d37",
//    "config": {...FlowConfig.to_json()...},
//    "flow": {...flow_result_to_json()...}}
//
// The "flow" object carries the deterministic (kNoRuntime) metrics
// snapshot, so two ledger lines with the same config fingerprint and
// build should agree on every metric — that is exactly the drift check
// tools/bench_compare.py --ledger runs. Appends are thread-safe and
// flushed per line; a reader that hits a torn or malformed trailing line
// (crash mid-append) skips it rather than failing the whole file.
//
// Producers, all through RunRecorder (flow/run_recorder.hpp): FlowServer
// (every job that finishes kDone), SweepRunner (every cell) and
// SocSweepRunner (every chip). The path comes from TPI_LEDGER or the
// FlowConfig "ledger" key.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace tpi {

/// Envelope version written by this build; bump on layout changes.
inline constexpr int kLedgerSchemaVersion = 1;

/// FNV-1a over the bytes of `data` (the config fingerprint hash), starting
/// from `h` (default: the offset basis): passing the previous hash chains
/// several buffers into one.
std::uint64_t fnv1a_64(std::string_view data, std::uint64_t h = 0xcbf29ce484222325ull);

/// fnv1a_64 rendered as 16 lowercase hex digits.
std::string fnv1a_hex(std::string_view data);

/// Short git revision baked in at configure time (TPI_GIT_REV), or
/// "unknown" when the source tree wasn't a git checkout.
const char* build_stamp();

/// One parsed ledger line.
struct LedgerEntry {
  int schema = 0;
  std::string ts;
  std::string build;
  std::string label;
  std::string config_fp;
  JsonValue config;
  JsonValue flow;
};

/// Append-only JSONL writer. Construction opens the file in append mode;
/// every append() writes one complete line under a mutex and flushes, so
/// concurrent server workers and sweep cells can share one Ledger.
class Ledger {
 public:
  explicit Ledger(std::string path);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  const std::string& path() const { return path_; }
  /// False when the file could not be opened (append() then no-ops).
  bool ok() const { return file_ != nullptr; }
  std::size_t lines_written() const;

  /// Record one completed run. `config` should be the FlowConfig JSON
  /// (fingerprinted with fnv1a_hex of its serialisation) and `flow` the
  /// flow_result_to_json object. Returns false on I/O failure.
  bool append(std::string_view label, const JsonValue& config, const JsonValue& flow);

  /// Parse every well-formed line of a ledger file, skipping malformed
  /// ones (torn writes, foreign schema lines keep their raw envelope).
  static std::vector<LedgerEntry> read_file(const std::string& path);

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::size_t lines_ = 0;
};

}  // namespace tpi
