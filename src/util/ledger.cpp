#include "util/ledger.hpp"

#include <ctime>

#include "util/log.hpp"

namespace tpi {

std::uint64_t fnv1a_64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string fnv1a_hex(std::string_view data) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a_64(data)));
  return buf;
}

const char* build_stamp() {
#ifdef TPI_GIT_REV
  return TPI_GIT_REV;
#else
  return "unknown";
#endif
}

namespace {

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

Ledger::Ledger(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) log_warn() << "ledger: cannot open " << path_ << " for append";
}

Ledger::~Ledger() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t Ledger::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

bool Ledger::append(std::string_view label, const JsonValue& config,
                    const JsonValue& flow) {
  if (file_ == nullptr) return false;
  JsonValue envelope;
  envelope.set("schema", kLedgerSchemaVersion);
  envelope.set("ts", utc_timestamp());
  envelope.set("build", build_stamp());
  envelope.set("label", std::string(label));
  envelope.set("config_fp", fnv1a_hex(config.serialise()));
  envelope.set("config", config);
  envelope.set("flow", flow);
  std::string line = envelope.serialise();
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    log_warn() << "ledger: short write to " << path_;
    return false;
  }
  std::fflush(file_);
  ++lines_;
  return true;
}

std::vector<LedgerEntry> Ledger::read_file(const std::string& path) {
  std::vector<LedgerEntry> entries;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return entries;
  std::string line;
  char buf[4096];
  auto flush_line = [&entries](const std::string& text) {
    if (text.empty()) return;
    const JsonParseResult parsed = json_parse(text);
    if (!parsed.ok || !parsed.value.is_object()) return;  // torn/foreign line
    LedgerEntry e;
    if (const JsonValue* v = parsed.value.find("schema")) {
      e.schema = static_cast<int>(v->as_int());
    }
    if (const JsonValue* v = parsed.value.find("ts")) e.ts = v->as_string();
    if (const JsonValue* v = parsed.value.find("build")) e.build = v->as_string();
    if (const JsonValue* v = parsed.value.find("label")) e.label = v->as_string();
    if (const JsonValue* v = parsed.value.find("config_fp")) {
      e.config_fp = v->as_string();
    }
    if (const JsonValue* v = parsed.value.find("config")) e.config = *v;
    if (const JsonValue* v = parsed.value.find("flow")) e.flow = *v;
    entries.push_back(std::move(e));
  };
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      flush_line(line);
      line.clear();
    }
  }
  flush_line(line);  // unterminated trailing line (crash mid-append)
  std::fclose(f);
  return entries;
}

}  // namespace tpi
