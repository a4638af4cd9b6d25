// Minimal JSON document model: parse a byte string into a JsonValue tree
// and serialise it back. The FlowConfig loader and the flow server's
// JSON-RPC endpoint read documents with it; json_check.hpp's validator is
// this parser with the tree dropped. Deliberately small — no comments, no
// NaN/Inf, UTF-8 passed through verbatim, \uXXXX escapes decoded to UTF-8.
//
// Object member order is preserved from the source text (and from
// insertion when building documents programmatically), so serialisation is
// deterministic: parse(serialise(v)) == v and serialise is stable across
// runs — the server's responses can be diffed byte-for-byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tpi {

class JsonValue;

/// One "{...}" with member order preserved (vector of pairs, not a map).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

enum class JsonKind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

class JsonValue {
 public:
  JsonValue() = default;                                      ///< null
  JsonValue(bool b) : kind_(JsonKind::kBool), bool_(b) {}     // NOLINT(google-explicit-constructor)
  JsonValue(double n) : kind_(JsonKind::kNumber), num_(n) {}  // NOLINT
  JsonValue(std::int64_t n) : kind_(JsonKind::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  JsonValue(int n) : kind_(JsonKind::kNumber), num_(n) {}     // NOLINT
  JsonValue(std::string s) : kind_(JsonKind::kString), str_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : kind_(JsonKind::kString), str_(s) {}             // NOLINT
  JsonValue(JsonArray a) : kind_(JsonKind::kArray), arr_(std::move(a)) {}     // NOLINT
  JsonValue(JsonObject o) : kind_(JsonKind::kObject), obj_(std::move(o)) {}   // NOLINT

  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_bool() const { return kind_ == JsonKind::kBool; }
  bool is_number() const { return kind_ == JsonKind::kNumber; }
  bool is_string() const { return kind_ == JsonKind::kString; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  /// Number narrowed to int64 (truncating); 0 for non-numbers.
  std::int64_t as_int() const { return static_cast<std::int64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const JsonArray& as_array() const { return arr_; }
  const JsonObject& as_object() const { return obj_; }

  /// Member lookup on objects: nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Append/overwrite a member (object builder; turns null into {}).
  void set(std::string_view key, JsonValue value);

  /// Compact deterministic serialisation ("key":value, no whitespace).
  std::string serialise() const;
  void serialise_to(std::string& out) const;

  bool operator==(const JsonValue& o) const;

 private:
  JsonKind kind_ = JsonKind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Parse exactly one JSON value (plus surrounding whitespace). On failure
/// returns nullopt-like: `ok` false and `error` (when non-null) gets a
/// short "offset N: ..." message, mirroring json_well_formed().
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;
};
JsonParseResult json_parse(std::string_view text);

/// "\"escaped\"" JSON string literal for `s` (quotes included).
std::string json_quote(std::string_view s);

/// Formatting shared by the hand-written JSON reports (sweep and SOC
/// reports, metrics snapshots, trace-sink metadata): numbers as "%.4f";
/// strings with '"' and '\\' escaped and control bytes dropped (no
/// surrounding quotes).
std::string report_number(double v);
std::string report_escape(std::string_view s);

}  // namespace tpi
