// Standard-cell specifications: logic function, geometry, pins, timing arcs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "library/nldm.hpp"

namespace tpi {

/// Logic function implemented by a cell. `kTsff` is the transparent scan
/// flip-flop of the paper's Fig. 1 (scan FF + output multiplexer).
enum class CellFunc {
  kTie0,
  kTie1,
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux2,   // Y = S ? B : A
  kDff,    // D, CK -> Q
  kSdff,   // D, TI, TE, CK -> Q  (scan flip-flop)
  kTsff,   // D, TI, TE, TR, CK -> Q  (transparent scan flip-flop, Fig. 1)
  kClkBuf, // clock-tree buffer
  kFiller, // row filler (power/ground strip continuity), no pins
};

bool func_is_sequential(CellFunc f);

/// Most pins a cell may have: the TSFF's six (D, TI, TE, TR, CK, Q). A
/// netlist stores each cell's pin nets inline in this many slots, and
/// CellLibrary::add_cell rejects a wider spec.
inline constexpr std::size_t kMaxCellPins = 6;

enum class PinDir { kInput, kOutput };

struct PinSpec {
  std::string name;
  PinDir dir = PinDir::kInput;
  double cap_ff = 0.0;    ///< input pin capacitance (0 for outputs)
  bool is_clock = false;  ///< true for CK pins
};

/// One characterised input→output delay arc.
struct TimingArc {
  int from_pin = -1;  ///< index into CellSpec::pins
  int to_pin = -1;
  NldmTable delay;     ///< propagation delay (ps)
  NldmTable out_slew;  ///< output transition time (ps)
};

struct CellSpec {
  std::string name;       ///< e.g. "NAND2_X1"
  CellFunc func = CellFunc::kBuf;
  int num_inputs = 0;     ///< logic data inputs (excludes CK/TE/TR/TI controls)
  int drive = 1;          ///< drive strength class (X1/X2/X4/X8)
  double width_um = 0.0;  ///< multiple of the site width
  double height_um = 0.0; ///< equal to the row height
  std::vector<PinSpec> pins;
  std::vector<TimingArc> arcs;

  // Sequential-only characteristics.
  bool sequential = false;
  double setup_ps = 0.0;
  double hold_ps = 0.0;

  // Pin roles, decided once by CellLibrary::add_cell from the cell's
  // function (−1 when absent): d/ti/te/tr only on sequential cells, select
  // only on a MUX2.
  int output_pin = -1;
  int clock_pin = -1;
  int d_pin = -1;
  int ti_pin = -1;
  int te_pin = -1;
  int tr_pin = -1;
  int select_pin = -1;  // MUX2 S
  /// Logic fan-in pins in evaluation order: the inputs that are neither a
  /// clock nor a scan pin, ascending (D for a flip-flop or TSFF; A, B, S
  /// for a MUX2).
  std::vector<int> logic_pins;
  std::uint8_t logic_pin_mask = 0;          ///< bit p set: pin p is in logic_pins
  std::uint8_t scan_or_clock_pin_mask = 0;  ///< bit p set: pin p is CK, TI, TE or TR

  double area_um2() const { return width_um * height_um; }
  /// Whether `pin` belongs to the scan/clock infrastructure (tested by
  /// scan shift and flush, not by capture patterns).
  bool is_scan_or_clock_pin(int pin) const { return (scan_or_clock_pin_mask >> pin) & 1u; }

  /// Index of the named pin, or −1.
  int find_pin(std::string_view pin_name) const;

  /// Arc from the given input pin to the (single) output, or nullptr.
  const TimingArc* arc_from(int from_pin) const;
};

}  // namespace tpi
