#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace tpi {
namespace {

// Atomic: benches set the level on the main thread while sweep/fault-sim
// workers read it (a plain global here was a TSan-reported data race).
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

double elapsed_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "silent") return LogLevel::kSilent;
  return std::nullopt;
}

void log_line(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  // Build the whole line and emit it with a single unbuffered fwrite so
  // concurrent worker threads cannot interleave fragments mid-line.
  char prefix[48];
  const int n = std::snprintf(prefix, sizeof prefix, "[%8.2fs %s] ", elapsed_seconds(),
                              tag(level));
  std::string line;
  line.reserve(static_cast<std::size_t>(n) + msg.size() + 1);
  line.append(prefix, static_cast<std::size_t>(n));
  line += msg;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

bool write_text_file(const std::string& path, std::string_view text, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn() << what << ": cannot write " << path;
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) log_warn() << what << ": short write to " << path;
  return ok;
}

}  // namespace tpi
