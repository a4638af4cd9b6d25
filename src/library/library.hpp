// Cell library container and the synthetic 130 nm library "phl130".
//
// The paper maps all circuits to the Philips 130 nm CMOS standard-cell
// library (6 metal layers). That library is proprietary; phl130 is a
// synthetic substitute with the same *structure*: row-based cells of a
// common height, NLDM timing, scan cells, the TSFF of Fig. 1, clock
// buffers, and filler cells in power-of-two widths.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "library/cell.hpp"

namespace tpi {

class CellLibrary {
 public:
  CellLibrary(std::string name, double site_width_um, double row_height_um);

  // Non-copyable: CellSpec pointers must stay stable.
  CellLibrary(const CellLibrary&) = delete;
  CellLibrary& operator=(const CellLibrary&) = delete;

  const std::string& name() const { return name_; }
  double site_width_um() const { return site_width_um_; }
  double row_height_um() const { return row_height_um_; }

  /// Add a cell; width is given in sites. Returns the stored spec. Throws
  /// std::invalid_argument when the spec has more than kMaxCellPins pins.
  CellSpec* add_cell(CellSpec spec, int width_sites);

  /// Lookup by exact name ("NAND2_X1"); nullptr when absent.
  const CellSpec* by_name(std::string_view cell_name) const;

  /// Lookup a logic gate by function / input count / drive strength;
  /// nullptr when the library has no such cell.
  const CellSpec* gate(CellFunc func, int num_inputs, int drive = 1) const;

  /// Filler cells, widest first (used to plug row gaps).
  const std::vector<const CellSpec*>& fillers() const { return fillers_; }

  /// Clock buffers, ascending drive.
  const std::vector<const CellSpec*>& clock_buffers() const { return clock_buffers_; }

  const std::vector<std::unique_ptr<CellSpec>>& cells() const { return cells_; }

 private:
  std::string name_;
  double site_width_um_;
  double row_height_um_;
  std::vector<std::unique_ptr<CellSpec>> cells_;
  std::unordered_map<std::string, const CellSpec*> by_name_;
  std::vector<const CellSpec*> fillers_;
  std::vector<const CellSpec*> clock_buffers_;
};

/// Build the synthetic 130 nm library used by all experiments.
std::unique_ptr<CellLibrary> make_phl130_library();

}  // namespace tpi
