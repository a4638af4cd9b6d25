// JSON syntax check: validates that a byte string is one well-formed JSON
// value. It is json_parse (util/json.hpp) with the tree dropped, so the
// repo has one JSON grammar. Used by the trace/sweep tests, the
// trace_smoke ctest target and the load-test benches to vet the
// Chrome-trace, report and RPC text we emit.
#pragma once

#include <string>
#include <string_view>

namespace tpi {

/// True iff `text` is exactly one well-formed JSON value (object, array,
/// string, number, true/false/null) with only whitespace around it, under
/// json_parse's rules (nesting depth <= 64, paired \u surrogates). On
/// failure, `error` (when non-null) gets json_parse's "offset N: ..."
/// message.
bool json_well_formed(std::string_view text, std::string* error = nullptr);

}  // namespace tpi
