// Minimal leveled logger used by the flow driver so long-running benches can
// narrate progress without pulling in a logging dependency.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace tpi {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kSilent = 4 };

/// Global minimum level; messages below it are dropped. Thread-safe: the
/// level is atomic and every line is written with one fwrite, so lines
/// from concurrent workers never interleave mid-line.
void set_log_level(LogLevel level);
LogLevel log_level();

/// "debug" | "info" | "warn" | "error" | "silent" (case-sensitive).
std::optional<LogLevel> parse_log_level(std::string_view name);

/// Emit one line (with level tag and elapsed wall time) to stderr.
void log_line(LogLevel level, const std::string& msg);

/// Write `text` to `path`. On failure warn "<what>: cannot write <path>"
/// (or "short write to") and return false.
bool write_text_file(const std::string& path, std::string_view text, const char* what);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail

inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }

}  // namespace tpi
