// Gate-level netlist: cell instances from a CellLibrary connected by nets.
//
// The netlist is index-based (CellId / NetId are dense integers) so the
// analysis passes (simulation, testability, ATPG, STA) can use flat arrays.
// Editing operations cover exactly what the paper's flow needs: inserting
// test points into nets (§3.1), replacing DFFs with scan flip-flops,
// stitching/reordering scan chains, and adding buffer trees.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "library/library.hpp"

namespace tpi {

using CellId = std::int32_t;
using NetId = std::int32_t;
inline constexpr CellId kNoCell = -1;
inline constexpr NetId kNoNet = -1;

/// How sequential cells are interpreted by derived views. Two views exist
/// because the TSFF test point (Fig. 1) is mode-dependent:
///  * kApplication — functional mode (TE=TR=0): the TSFF is transparent, a
///    combinational element with a D→Q arc. Used by timing analysis and
///    functional simulation.
///  * kCapture — scan capture mode (TE=0, TR=1): the TSFF behaves like any
///    scan flip-flop (its D is observed, its Q is controlled), i.e. it is a
///    sequential boundary. Used by ATPG and testability analysis.
enum class SeqView {
  kApplication,  ///< TSFF transparent (combinational)
  kCapture,      ///< TSFF is a scan-cell boundary
};

/// A (cell, pin-index) pair; pin indexes into CellSpec::pins.
struct PinRef {
  CellId cell = kNoCell;
  int pin = -1;

  bool valid() const { return cell != kNoCell; }
  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// A cell's pin nets, one per spec pin (kNoNet = unconnected), held inline
/// in kMaxCellPins slots so that adding, copying or freeing a cell costs no
/// heap allocation. Reads like a vector: size(), [], range-for, ==.
class PinNets {
 public:
  using iterator = NetId*;
  using const_iterator = const NetId*;

  std::size_t size() const { return size_; }
  NetId& operator[](std::size_t i) {
    assert(i < size());
    return nets_[i];
  }
  const NetId& operator[](std::size_t i) const {
    assert(i < size());
    return nets_[i];
  }
  iterator begin() { return nets_.data(); }
  iterator end() { return nets_.data() + size_; }
  const_iterator begin() const { return nets_.data(); }
  const_iterator end() const { return nets_.data() + size_; }

  /// Make it `n` pins, each on `net`.
  void assign(std::size_t n, NetId net) {
    assert(n <= kMaxCellPins);
    nets_.fill(net);
    size_ = static_cast<std::uint8_t>(n);
  }

  friend bool operator==(const PinNets& a, const PinNets& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<NetId, kMaxCellPins> nets_{};
  std::uint8_t size_ = 0;
};

struct CellInst {
  std::string name;
  const CellSpec* spec = nullptr;
  PinNets conn;

  NetId output_net() const {
    return spec->output_pin >= 0 ? conn[static_cast<std::size_t>(spec->output_pin)] : kNoNet;
  }
};

struct Net {
  std::string name;
  PinRef driver;            ///< driving cell output pin (invalid if PI-driven)
  int pi_index = -1;        ///< >=0 when driven by that primary input
  std::vector<PinRef> sinks;  ///< cell input pins loading the net
  std::vector<int> po_sinks;  ///< primary outputs reading the net

  bool driven_by_pi() const { return pi_index >= 0; }
  std::size_t fanout() const { return sinks.size() + po_sinks.size(); }
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary* lib, std::string name = "top");

  const CellLibrary& library() const { return *lib_; }
  const std::string& name() const { return name_; }

  // ---- construction ----
  NetId add_net(std::string net_name);
  CellId add_cell(const CellSpec* spec, std::string cell_name);
  /// Connect a cell pin to a net (pin must currently be unconnected).
  void connect(CellId cell, int pin, NetId net);
  /// Detach a cell pin from whatever net it is on.
  void disconnect(CellId cell, int pin);

  int add_primary_input(std::string pi_name);   ///< returns PI index
  int add_primary_output(std::string po_name, NetId net);
  NetId pi_net(int pi_index) const { return pi_nets_[static_cast<std::size_t>(pi_index)]; }

  /// Declare a primary input as a clock root (establishes a clock domain).
  void mark_clock(int pi_index);
  const std::vector<int>& clock_pis() const { return clock_pis_; }
  bool is_clock_net(NetId net) const;

  // ---- editing (used by TPI / scan / CTS) ----
  /// Replace a cell's spec with a pin-name-compatible one (e.g. DFF_X1 ->
  /// SDFF_X1): connections are carried over by pin name; new pins start
  /// unconnected.
  void replace_spec(CellId cell, const CellSpec* new_spec);

  /// Insert a single-input cell (buffer-like: TSFF via D, BUF via A) into
  /// `net`: the new cell's `in_pin` takes the old net, a fresh net takes the
  /// new cell's output, and the chosen sinks move onto the fresh net.
  /// If `sink_subset` is empty, ALL existing sinks (and POs) move.
  NetId insert_cell_in_net(NetId net, CellId new_cell, int in_pin,
                           const std::vector<PinRef>& sink_subset = {});

  // ---- access ----
  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_pis() const { return pi_names_.size(); }
  std::size_t num_pos() const { return po_names_.size(); }

  CellInst& cell(CellId id) { return cells_[static_cast<std::size_t>(id)]; }
  const CellInst& cell(CellId id) const { return cells_[static_cast<std::size_t>(id)]; }
  Net& net(NetId id) { return nets_[static_cast<std::size_t>(id)]; }
  const Net& net(NetId id) const { return nets_[static_cast<std::size_t>(id)]; }

  const std::string& pi_name(int i) const { return pi_names_[static_cast<std::size_t>(i)]; }
  const std::string& po_name(int i) const { return po_names_[static_cast<std::size_t>(i)]; }
  NetId po_net(int i) const { return po_nets_[static_cast<std::size_t>(i)]; }

  /// Lowest id with that name, or kNoCell / kNoNet. A linear scan: the
  /// netlist keeps no name index, so a caller that looks up many names
  /// (the .bench parser) builds its own.
  CellId find_cell(std::string_view cell_name) const;
  NetId find_net(std::string_view net_name) const;

  /// All sequential cells (DFF/SDFF/TSFF), ascending id.
  std::vector<CellId> flip_flops() const;

  // ---- statistics ----
  struct Stats {
    std::size_t cells = 0;
    std::size_t combinational = 0;
    std::size_t flip_flops = 0;
    std::size_t test_points = 0;
    std::size_t nets = 0;
    std::size_t pis = 0;
    std::size_t pos = 0;
    double cell_area_um2 = 0.0;
  };
  Stats stats() const;

  /// Check structural invariants (every pin consistent with its net, every
  /// net driven at most once, pin counts match specs). Returns an empty
  /// string when valid, else a description of the first violation.
  std::string validate() const;

  // ---- edit version (consumed by DesignDB's cached derived views) ----
  //
  // Every public mutator bumps `version()` exactly once, even the composite
  // ones (replace_spec / insert_cell_in_net / add_primary_input call other
  // mutators internally; a reentrancy-depth guard folds the nested bumps).
  // A cached view built at version B is exact while version() == B; any
  // edit since means a rebuild.

  /// Monotonically increasing edit version; 0 = freshly constructed.
  std::uint64_t version() const { return version_; }

 private:
  /// RAII reentrancy guard: the outermost scope bumps the version once.
  class EditScope {
   public:
    explicit EditScope(Netlist& nl) : nl_(nl) { ++nl_.edit_depth_; }
    ~EditScope() {
      if (--nl_.edit_depth_ == 0) ++nl_.version_;
    }
    EditScope(const EditScope&) = delete;
    EditScope& operator=(const EditScope&) = delete;

   private:
    Netlist& nl_;
  };

  const CellLibrary* lib_;
  std::string name_;
  std::vector<CellInst> cells_;
  std::vector<Net> nets_;
  std::vector<std::string> pi_names_;
  std::vector<NetId> pi_nets_;
  std::vector<std::string> po_names_;
  std::vector<NetId> po_nets_;
  std::vector<int> clock_pis_;

  // ---- edit version state ----
  std::uint64_t version_ = 0;
  int edit_depth_ = 0;
};

}  // namespace tpi
