#include "util/json.hpp"

#include "util/json_check.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace tpi {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult res;
    skip_ws();
    if (!parse_value(res.value)) {
      res.error = error_;
      return res;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after value");
      res.error = error_;
      return res;
    }
    res.ok = true;
    return res;
  }

 private:
  bool fail(const char* msg) {
    if (error_.empty()) {
      error_ = "offset " + std::to_string(pos_) + ": " + msg;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    bool ok = parse_value_inner(out);
    --depth_;
    return ok;
  }

  bool parse_value_inner(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = JsonValue(true);
          return true;
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = JsonValue(false);
          return true;
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = JsonValue();
          return true;
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (eat('}')) {
      out = JsonValue(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected member name");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':' after member name");
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return fail("expected ',' or '}' in object");
    }
    out = JsonValue(std::move(obj));
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (eat(']')) {
      out = JsonValue(std::move(arr));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) break;
      return fail("expected ',' or ']' in array");
    }
    out = JsonValue(std::move(arr));
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          // Surrogate pair: expect a low surrogate right after.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return fail("invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape digit");
    }
    pos_ += 4;
    out = v;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (eat('-')) { /* sign */ }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (eat('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out = JsonValue(std::strtod(token.c_str(), nullptr));
    return true;
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

void serialise_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf; emit null like browsers do
    out += "null";
    return;
  }
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {  // exact integers print without a fraction
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string report_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

std::string report_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are plain ASCII
    out += c;
  }
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != JsonKind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (kind_ != JsonKind::kObject) {
    kind_ = JsonKind::kObject;
    obj_.clear();
  }
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(value));
}

void JsonValue::serialise_to(std::string& out) const {
  switch (kind_) {
    case JsonKind::kNull: out += "null"; break;
    case JsonKind::kBool: out += bool_ ? "true" : "false"; break;
    case JsonKind::kNumber: serialise_number(out, num_); break;
    case JsonKind::kString: out += json_quote(str_); break;
    case JsonKind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : arr_) {
        if (!first) out += ',';
        first = false;
        v.serialise_to(out);
      }
      out += ']';
      break;
    }
    case JsonKind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        out += json_quote(k);
        out += ':';
        v.serialise_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::serialise() const {
  std::string out;
  serialise_to(out);
  return out;
}

bool JsonValue::operator==(const JsonValue& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case JsonKind::kNull: return true;
    case JsonKind::kBool: return bool_ == o.bool_;
    case JsonKind::kNumber: return num_ == o.num_;
    case JsonKind::kString: return str_ == o.str_;
    case JsonKind::kArray: return arr_ == o.arr_;
    case JsonKind::kObject: return obj_ == o.obj_;
  }
  return false;
}

JsonParseResult json_parse(std::string_view text) { return Parser(text).run(); }

bool json_well_formed(std::string_view text, std::string* error) {
  JsonParseResult parsed = json_parse(text);
  if (!parsed.ok && error != nullptr) *error = std::move(parsed.error);
  return parsed.ok;
}

}  // namespace tpi
