#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace tpi {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::add_separator() { rows_.emplace_back(); }

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << "  ";
      os << std::string(width[c] - row[c].size(), ' ') << row[c];
    }
    os << '\n';
  };
  emit(header_);
  std::vector<std::string> dashes;
  dashes.reserve(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) dashes.emplace_back(width[c], '-');
  emit(dashes);
  for (const auto& row : rows_) {
    if (row.empty()) {
      os << '\n';
    } else {
      emit(row);
    }
  }
  return os.str();
}

std::string fmt_int(long long v) {
  const bool neg = v < 0;
  unsigned long long mag = neg ? static_cast<unsigned long long>(-(v + 1)) + 1ULL
                               : static_cast<unsigned long long>(v);
  std::string digits = std::to_string(mag);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string fmt_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace tpi
