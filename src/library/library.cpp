#include "library/library.hpp"

#include <cassert>
#include <stdexcept>

namespace tpi {

CellLibrary::CellLibrary(std::string name, double site_width_um, double row_height_um)
    : name_(std::move(name)), site_width_um_(site_width_um), row_height_um_(row_height_um) {}

CellSpec* CellLibrary::add_cell(CellSpec spec, int width_sites) {
  if (spec.pins.size() > kMaxCellPins) {
    throw std::invalid_argument("cell " + spec.name + " has " + std::to_string(spec.pins.size()) +
                                " pins, more than the " + std::to_string(kMaxCellPins) +
                                " a netlist stores");
  }
  spec.width_um = width_sites * site_width_um_;
  spec.height_um = row_height_um_;
  // Pin roles follow the function, whatever the caller set: only a
  // flip-flop has data and scan pins, only a MUX2 a select, and every
  // other input that is not a clock is logic.
  spec.output_pin = spec.clock_pin = spec.d_pin = spec.ti_pin = spec.te_pin = spec.tr_pin =
      spec.select_pin = -1;
  spec.logic_pins.clear();
  spec.logic_pin_mask = spec.scan_or_clock_pin_mask = 0;
  spec.sequential = func_is_sequential(spec.func);
  if (spec.sequential) {
    spec.d_pin = spec.find_pin("D");
    spec.ti_pin = spec.find_pin("TI");
    spec.te_pin = spec.find_pin("TE");
    spec.tr_pin = spec.find_pin("TR");
  }
  if (spec.func == CellFunc::kMux2) spec.select_pin = spec.find_pin("S");
  for (std::size_t i = 0; i < spec.pins.size(); ++i) {
    const PinSpec& p = spec.pins[i];
    const int idx = static_cast<int>(i);
    const auto bit = static_cast<std::uint8_t>(1u << i);
    if (p.dir == PinDir::kOutput) {
      spec.output_pin = idx;
    } else if (p.is_clock || idx == spec.ti_pin || idx == spec.te_pin || idx == spec.tr_pin) {
      if (p.is_clock) spec.clock_pin = idx;
      spec.scan_or_clock_pin_mask |= bit;
    } else {
      spec.logic_pins.push_back(idx);
      spec.logic_pin_mask |= bit;
    }
  }
  cells_.push_back(std::make_unique<CellSpec>(std::move(spec)));
  CellSpec* stored = cells_.back().get();
  by_name_[stored->name] = stored;
  if (stored->func == CellFunc::kFiller) {
    fillers_.push_back(stored);
    // Keep widest-first for greedy gap filling.
    for (std::size_t i = fillers_.size(); i > 1; --i) {
      if (fillers_[i - 1]->width_um > fillers_[i - 2]->width_um) {
        std::swap(fillers_[i - 1], fillers_[i - 2]);
      }
    }
  }
  if (stored->func == CellFunc::kClkBuf) {
    clock_buffers_.push_back(stored);
    for (std::size_t i = clock_buffers_.size(); i > 1; --i) {
      if (clock_buffers_[i - 1]->drive < clock_buffers_[i - 2]->drive) {
        std::swap(clock_buffers_[i - 1], clock_buffers_[i - 2]);
      }
    }
  }
  return stored;
}

const CellSpec* CellLibrary::by_name(std::string_view cell_name) const {
  const auto it = by_name_.find(std::string(cell_name));
  return it == by_name_.end() ? nullptr : it->second;
}

const CellSpec* CellLibrary::gate(CellFunc func, int num_inputs, int drive) const {
  for (const auto& c : cells_) {
    if (c->func == func && c->num_inputs == num_inputs && c->drive == drive) return c.get();
  }
  return nullptr;
}

namespace {

// Characterisation knobs for one cell variant.
struct GateChar {
  const char* name;
  CellFunc func;
  int num_inputs;
  int drive;
  int width_sites;
  double in_cap_ff;
  double intrinsic_ps;
  double r_eff_ps_per_ff;  // load-dependent delay slope
};

PinSpec in_pin(std::string name, double cap_ff, bool clock = false) {
  return PinSpec{std::move(name), PinDir::kInput, cap_ff, clock};
}

PinSpec out_pin(std::string name) { return PinSpec{std::move(name), PinDir::kOutput, 0.0, false}; }

// X1 tables are characterised up to 110 fF; bigger drives proportionally
// more. Lookups beyond the range are extrapolated — the paper's "slow
// nodes" (unbuffered hub nets with dozens of sinks land there).
double table_range_ff(int drive) { return 110.0 * drive; }

NldmTable delay_table(const GateChar& g) {
  return make_nldm(g.intrinsic_ps, g.r_eff_ps_per_ff, 0.12, 0.0005,
                   table_range_ff(g.drive));
}

NldmTable slew_table(const GateChar& g) {
  return make_nldm(0.4 * g.intrinsic_ps, 2.0 * g.r_eff_ps_per_ff, 0.08, 0.0,
                   table_range_ff(g.drive));
}

void add_combinational(CellLibrary& lib, const GateChar& g) {
  CellSpec spec;
  spec.name = g.name;
  spec.func = g.func;
  spec.num_inputs = g.num_inputs;
  spec.drive = g.drive;
  static const char* kInputNames[] = {"A", "B", "C", "D"};
  assert(g.num_inputs <= 4);
  for (int i = 0; i < g.num_inputs; ++i) spec.pins.push_back(in_pin(kInputNames[i], g.in_cap_ff));
  if (g.func == CellFunc::kMux2) spec.pins.push_back(in_pin("S", g.in_cap_ff + 0.4));
  spec.pins.push_back(out_pin("Y"));
  const int y = static_cast<int>(spec.pins.size()) - 1;
  for (int i = 0; i < y; ++i) {
    TimingArc arc;
    arc.from_pin = i;
    arc.to_pin = y;
    // Later inputs of a stack are slightly slower, as in real libraries.
    GateChar gi = g;
    gi.intrinsic_ps += 3.0 * i;
    arc.delay = delay_table(gi);
    arc.out_slew = slew_table(gi);
    spec.arcs.push_back(std::move(arc));
  }
  lib.add_cell(std::move(spec), g.width_sites);
}

struct FlopChar {
  const char* name;
  CellFunc func;
  int width_sites;
  double clk_to_q_ps;
  double r_eff_ps_per_ff;
  double setup_ps;
  double hold_ps;
  double d_to_q_ps;  // TSFF only: transparent two-mux application path
};

void add_flop(CellLibrary& lib, const FlopChar& f) {
  CellSpec spec;
  spec.name = f.name;
  spec.func = f.func;
  spec.num_inputs = 1;  // logic data input D
  spec.drive = 1;
  spec.setup_ps = f.setup_ps;
  spec.hold_ps = f.hold_ps;
  const double d_cap = (f.func == CellFunc::kTsff) ? 3.0 : 2.4;  // TSFF D fans to 2 muxes
  spec.pins.push_back(in_pin("D", d_cap));
  if (f.func != CellFunc::kDff) {
    spec.pins.push_back(in_pin("TI", 2.2));
    spec.pins.push_back(in_pin("TE", 2.8));
  }
  if (f.func == CellFunc::kTsff) spec.pins.push_back(in_pin("TR", 2.8));
  spec.pins.push_back(in_pin("CK", 1.8, /*clock=*/true));
  spec.pins.push_back(out_pin("Q"));
  const int q = static_cast<int>(spec.pins.size()) - 1;
  {
    TimingArc ck_q;
    ck_q.from_pin = spec.find_pin("CK");
    ck_q.to_pin = q;
    GateChar g{f.name, f.func, 1, 1, f.width_sites, 0.0, f.clk_to_q_ps, f.r_eff_ps_per_ff};
    ck_q.delay = delay_table(g);
    ck_q.out_slew = slew_table(g);
    spec.arcs.push_back(std::move(ck_q));
  }
  if (f.func == CellFunc::kTsff) {
    // Application-mode transparent path D -> (input mux) -> (output mux) -> Q.
    // This is the arc that puts test-point delay on functional paths (§3.1).
    TimingArc d_q;
    d_q.from_pin = spec.find_pin("D");
    d_q.to_pin = q;
    GateChar g{f.name, f.func, 1, 1, f.width_sites, 0.0, f.d_to_q_ps, f.r_eff_ps_per_ff};
    d_q.delay = delay_table(g);
    d_q.out_slew = slew_table(g);
    spec.arcs.push_back(std::move(d_q));
  }
  lib.add_cell(std::move(spec), f.width_sites);
}

void add_tie(CellLibrary& lib, const char* name, CellFunc func) {
  CellSpec spec;
  spec.name = name;
  spec.func = func;
  spec.num_inputs = 0;
  spec.pins.push_back(out_pin("Y"));
  lib.add_cell(std::move(spec), 2);
}

void add_filler(CellLibrary& lib, const char* name, int width_sites) {
  CellSpec spec;
  spec.name = name;
  spec.func = CellFunc::kFiller;
  spec.num_inputs = 0;
  lib.add_cell(std::move(spec), width_sites);
}

}  // namespace

std::unique_ptr<CellLibrary> make_phl130_library() {
  auto lib = std::make_unique<CellLibrary>("phl130", /*site*/ 0.4, /*row height*/ 3.6);

  const GateChar gates[] = {
      // name        func             #in drive sites cap   intr  r_eff
      {"BUF_X1", CellFunc::kBuf, 1, 1, 3, 2.0, 45.0, 3.0},
      {"BUF_X2", CellFunc::kBuf, 1, 2, 4, 3.5, 42.0, 1.6},
      {"BUF_X4", CellFunc::kBuf, 1, 4, 6, 6.0, 40.0, 0.9},
      {"INV_X1", CellFunc::kInv, 1, 1, 2, 2.2, 20.0, 2.8},
      {"INV_X2", CellFunc::kInv, 1, 2, 3, 4.0, 18.0, 1.5},
      {"INV_X4", CellFunc::kInv, 1, 4, 5, 7.5, 17.0, 0.85},
      {"NAND2_X1", CellFunc::kNand, 2, 1, 3, 2.4, 28.0, 3.2},
      {"NAND3_X1", CellFunc::kNand, 3, 1, 4, 2.6, 36.0, 3.6},
      {"NAND4_X1", CellFunc::kNand, 4, 1, 5, 2.8, 45.0, 4.0},
      {"NOR2_X1", CellFunc::kNor, 2, 1, 3, 2.5, 32.0, 3.8},
      {"NOR3_X1", CellFunc::kNor, 3, 1, 4, 2.7, 42.0, 4.4},
      {"NOR4_X1", CellFunc::kNor, 4, 1, 5, 2.9, 52.0, 5.0},
      {"AND2_X1", CellFunc::kAnd, 2, 1, 4, 2.2, 48.0, 3.0},
      {"AND3_X1", CellFunc::kAnd, 3, 1, 5, 2.4, 56.0, 3.2},
      {"OR2_X1", CellFunc::kOr, 2, 1, 4, 2.3, 52.0, 3.2},
      {"OR3_X1", CellFunc::kOr, 3, 1, 5, 2.5, 60.0, 3.4},
      {"XOR2_X1", CellFunc::kXor, 2, 1, 6, 3.2, 65.0, 3.6},
      {"XNOR2_X1", CellFunc::kXnor, 2, 1, 6, 3.2, 66.0, 3.6},
      {"MUX2_X1", CellFunc::kMux2, 2, 1, 6, 2.6, 55.0, 3.2},
      {"CLKBUF_X2", CellFunc::kClkBuf, 1, 2, 4, 3.5, 40.0, 1.5},
      {"CLKBUF_X4", CellFunc::kClkBuf, 1, 4, 6, 6.0, 38.0, 0.8},
      {"CLKBUF_X8", CellFunc::kClkBuf, 1, 8, 10, 11.0, 36.0, 0.45},
  };
  for (const auto& g : gates) add_combinational(*lib, g);

  const FlopChar flops[] = {
      // name      func             sites ck->q  r    setup hold  d->q
      {"DFF_X1", CellFunc::kDff, 9, 160.0, 3.0, 110.0, 10.0, 0.0},
      {"SDFF_X1", CellFunc::kSdff, 11, 170.0, 3.0, 120.0, 10.0, 0.0},
      // TSFF = scan FF + output mux (Fig. 1). The transparent application
      // path costs two multiplexer delays (input mux + output mux).
      {"TSFF_X1", CellFunc::kTsff, 15, 175.0, 3.0, 120.0, 10.0, 110.0},
  };
  for (const auto& f : flops) add_flop(*lib, f);

  add_tie(*lib, "TIE0", CellFunc::kTie0);
  add_tie(*lib, "TIE1", CellFunc::kTie1);

  add_filler(*lib, "FILL1", 1);
  add_filler(*lib, "FILL2", 2);
  add_filler(*lib, "FILL4", 4);
  add_filler(*lib, "FILL8", 8);
  add_filler(*lib, "FILL16", 16);

  return lib;
}

}  // namespace tpi
