// Plain-text table formatter used by the bench binaries to print rows in the
// same layout as the paper's Tables 1-3.
#pragma once

#include <string>
#include <vector>

namespace tpi {

/// Right-aligned column table with a header row, rendered with aligned
/// whitespace and a separator line, e.g.
///
///   circuit  #TP  #FF  ...
///   -------  ---  ---  ...
///   s38417     0 1636  ...
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Blank separator row (renders as an empty line between circuit groups).
  void add_separator();

  std::string to_string() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty vector = separator
};

/// Format helpers used when building table cells.
std::string fmt_int(long long v);              ///< with thousands separators
std::string fmt_fixed(double v, int decimals); ///< fixed-point

}  // namespace tpi
