// Shared helpers for tests: hand-built netlists with known behaviour, a
// tiny generator profile used by the cross-module tests, a file reader
// for the trace/ledger files the flow writes, a scoped setenv and a
// one-fault view of the fault-simulation bank.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "netlist/netlist.hpp"

namespace tpi::test {

/// Whole contents of `path`; "" when it cannot be opened.
inline std::string read_text_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Sets (or, for nullptr, unsets) an environment variable and restores
/// the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

/// Library shared by all tests in a binary.
inline const CellLibrary& lib() {
  static const std::unique_ptr<CellLibrary> l = make_phl130_library();
  return *l;
}

/// Lane word 0 of `fault`'s detect words against the batch loaded in
/// `bank`: bit k set iff pattern k detects it.
inline Word detect_word(FaultSimBank& bank, Fault fault) {
  std::vector<Fault*> one{&fault};
  std::vector<Word> detect;
  bank.grade(one, resolve_fault_tasks(bank.model(), one), detect);
  return detect[0];
}

/// y = NOR(a, b); z = AND(c, y); w = XOR(a, z); outputs z and w.
/// Fully testable: every stuck-at fault has a test.
inline std::unique_ptr<Netlist> make_small_comb() {
  auto nl = std::make_unique<Netlist>(&lib(), "small_comb");
  const int a = nl->add_primary_input("a");
  const int b = nl->add_primary_input("b");
  const int c = nl->add_primary_input("c");
  const CellSpec* nor2 = lib().gate(CellFunc::kNor, 2);
  const CellSpec* and2 = lib().gate(CellFunc::kAnd, 2);
  const CellSpec* xor2 = lib().gate(CellFunc::kXor, 2);
  const CellId g1 = nl->add_cell(nor2, "g1");
  nl->connect(g1, 0, nl->pi_net(a));
  nl->connect(g1, 1, nl->pi_net(b));
  const NetId y = nl->add_net("y");
  nl->connect(g1, nor2->output_pin, y);
  const CellId g2 = nl->add_cell(and2, "g2");
  nl->connect(g2, 0, nl->pi_net(c));
  nl->connect(g2, 1, y);
  const NetId z = nl->add_net("z");
  nl->connect(g2, and2->output_pin, z);
  const CellId g3 = nl->add_cell(xor2, "g3");
  nl->connect(g3, 0, nl->pi_net(a));
  nl->connect(g3, 1, z);
  const NetId w = nl->add_net("w");
  nl->connect(g3, xor2->output_pin, w);
  nl->add_primary_output("po_z", z);
  nl->add_primary_output("po_w", w);
  return nl;
}

/// Two-bit shift register with an XOR tap: clk, d -> q0 -> q1, po = q0^q1.
inline std::unique_ptr<Netlist> make_shift_register() {
  auto nl = std::make_unique<Netlist>(&lib(), "shift2");
  const int clk = nl->add_primary_input("clk");
  nl->mark_clock(clk);
  const int d = nl->add_primary_input("d");
  const CellSpec* dff = lib().by_name("DFF_X1");
  const CellSpec* xor2 = lib().gate(CellFunc::kXor, 2);
  const CellId f0 = nl->add_cell(dff, "f0");
  nl->connect(f0, dff->d_pin, nl->pi_net(d));
  nl->connect(f0, dff->clock_pin, nl->pi_net(clk));
  const NetId q0 = nl->add_net("q0");
  nl->connect(f0, dff->output_pin, q0);
  const CellId f1 = nl->add_cell(dff, "f1");
  nl->connect(f1, dff->d_pin, q0);
  nl->connect(f1, dff->clock_pin, nl->pi_net(clk));
  const NetId q1 = nl->add_net("q1");
  nl->connect(f1, dff->output_pin, q1);
  const CellId g = nl->add_cell(xor2, "g");
  nl->connect(g, 0, q0);
  nl->connect(g, 1, q1);
  const NetId t = nl->add_net("t");
  nl->connect(g, xor2->output_pin, t);
  nl->add_primary_output("po", t);
  return nl;
}

/// Small deterministic generator profile (fast enough for unit tests).
inline CircuitProfile tiny_profile(std::uint64_t seed = 1234) {
  CircuitProfile p;
  p.name = "tiny";
  p.num_ffs = 24;
  p.num_comb_gates = 320;
  p.num_pis = 10;
  p.num_pos = 8;
  p.num_clock_domains = 1;
  p.domain_fraction = {1.0};
  p.target_depth = 10;
  p.num_hard_blocks = 2;
  p.hard_block_width = 6;
  p.hard_classes_per_block = 4;
  p.hard_mode_bits = 3;
  p.num_hub_signals = 3;
  p.hub_pick_prob = 0.02;
  p.max_chain_length = 10;
  p.target_row_utilization = 0.9;
  p.seed = seed;
  return p;
}

/// Mid-size profile for integration tests (~2.5k cells).
inline CircuitProfile small_profile(std::uint64_t seed = 77) {
  CircuitProfile p = scaled(s38417_profile(), 0.1);
  p.name = "s38417_mini";
  p.num_hard_blocks = 4;
  p.seed = seed;
  return p;
}

}  // namespace tpi::test
