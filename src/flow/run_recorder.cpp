#include "flow/run_recorder.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <optional>

#include "flow/flow_config.hpp"
#include "util/json.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace tpi {

std::string sanitize_trace_label(const std::string& label) {
  auto safe = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '=' || c == '-';
  };
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    if (safe(c)) {
      out += c;
    } else {
      static const char kHex[] = "0123456789abcdef";
      const auto b = static_cast<unsigned char>(c);
      out += '_';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    }
  }
  return out;
}

std::string run_label(const std::string& circuit, double tp_percent) {
  char pct[32];
  std::snprintf(pct, sizeof pct, "%g", tp_percent);
  return circuit + "/tp=" + pct;
}

std::string soc_run_label(int cores, int tam_width, double tp_percent) {
  return run_label("soc=" + std::to_string(cores) + "/tam=" + std::to_string(tam_width),
                   tp_percent);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

RunRecorder::Trace::Trace(bool enabled, std::uint64_t id, const std::string& label) {
  if (enabled) sink_ = std::make_unique<TraceSink>(id, label);
}

RunRecorder::Trace::~Trace() = default;

void RunRecorder::Trace::run(const std::function<void()>& body) const {
  std::optional<ScopedTraceSink> scope;
  if (sink_ != nullptr) scope.emplace(*sink_);
  body();
}

std::string RunRecorder::Trace::to_json() const {
  return sink_ != nullptr ? sink_->to_json() : std::string();
}

void RunRecorder::Trace::write(const std::string& dir, const std::string& stem) const {
  if (sink_ == nullptr || dir.empty()) return;
  ::mkdir(dir.c_str(), 0777);  // EEXIST is fine
  write_text_file(dir + "/" + stem + ".trace.json", sink_->to_json(), "trace sink");
}

RunRecorder::RunRecorder(const std::string& ledger_path) {
  if (!ledger_path.empty()) ledger_ = std::make_unique<Ledger>(ledger_path);
}

RunRecorder::~RunRecorder() = default;

void RunRecorder::append(const std::string& label, const FlowConfig& config,
                         const JsonValue& result) const {
  if (ledger_ == nullptr) return;
  const JsonParseResult cfg = json_parse(config.to_json());
  ledger_->append(label, cfg.ok ? cfg.value : JsonValue(JsonObject{}), result);
}

}  // namespace tpi
