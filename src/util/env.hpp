// Validated environment-variable parsing. Invalid values produce one
// consistent warning and a fallback instead of module-specific
// strtod/strtol ad-hockery. Each TPI_* variable has exactly one reader:
// FlowConfig::from_env() (flow/flow_config.hpp) reads all of them except
// TPI_TRACE (trace_init_from_env, util/trace.hpp), which acts below the
// flow layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tpi {

/// Raw value of `name`, or nullopt when unset or empty.
std::optional<std::string> env_string(const char* name);

/// Strictly positive double. Unset/empty -> `fallback`; garbage or a
/// non-positive value warns on stderr and falls back.
double env_positive_double(const char* name, double fallback);

/// Integer in [lo, hi]. Unset/empty -> `fallback`; garbage or out-of-range
/// warns and falls back.
long env_int(const char* name, long fallback, long lo, long hi);

/// Parse helpers over explicit strings (shared by env and JSON config
/// paths): nullopt on any trailing garbage / range violation.
std::optional<double> parse_double(std::string_view text);
std::optional<long> parse_long(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);

}  // namespace tpi
