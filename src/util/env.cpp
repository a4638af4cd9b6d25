#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tpi {
namespace {

// Parsing uses a NUL-terminated copy so strtod/strtol can detect trailing
// garbage; env values and config strings are short, the copy is cheap.
std::string terminated(std::string_view text) { return std::string(text); }

}  // namespace

std::optional<std::string> env_string(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::string(env);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string s = terminated(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return v;
}

std::optional<long> parse_long(std::string_view text) {
  const std::string s = terminated(text);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  const std::string s = terminated(text);
  if (!s.empty() && s[0] == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return v;
}

double env_positive_double(const char* name, double fallback) {
  const std::optional<std::string> env = env_string(name);
  if (!env) return fallback;
  const std::optional<double> v = parse_double(*env);
  if (!v || !(*v > 0.0)) {
    std::fprintf(stderr,
                 "[env] warning: invalid %s=\"%s\" (want a positive number); using %g\n",
                 name, env->c_str(), fallback);
    return fallback;
  }
  return *v;
}

long env_int(const char* name, long fallback, long lo, long hi) {
  const std::optional<std::string> env = env_string(name);
  if (!env) return fallback;
  const std::optional<long> v = parse_long(*env);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr,
                 "[env] warning: invalid %s=\"%s\" (want an integer in [%ld, %ld]); "
                 "using %ld\n",
                 name, env->c_str(), lo, hi, fallback);
    return fallback;
  }
  return *v;
}

}  // namespace tpi
