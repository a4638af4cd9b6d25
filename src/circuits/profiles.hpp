// Circuit profiles: parameter sets for the synthetic circuit generator that
// match the aggregate statistics of the paper's three test cases (§4.1).
//
// The real netlists are unavailable (s38417 is public but the two Philips
// cores are proprietary), so the generator synthesises sequential circuits
// with matched flip-flop counts, gate counts, clock-domain structure and —
// crucially for Table 1 — a population of pseudo-random-pattern-resistant
// fault clusters (wide decoders over shared signal pools), which is what
// makes test point insertion pay off in compact-ATPG pattern count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tpi {

struct CircuitProfile {
  std::string name;

  // Structure.
  int num_ffs = 0;
  int num_comb_gates = 0;       ///< target combinational cell count
  int num_pis = 0;              ///< functional primary inputs (excl. clocks)
  int num_pos = 0;
  int num_clock_domains = 1;
  std::vector<double> domain_fraction;  ///< FF share per domain (sums to 1)
  int target_depth = 24;        ///< approximate logic depth in gate levels

  // Random-pattern-resistant structure: each "hard block" is a rare master
  // enable (a W-wide decode) gating a region of pairwise-incompatible fault
  // classes. Without test points every class needs its own deterministic
  // pattern; a single control point on the enable collapses the block to
  // random-testable — the concentration that makes 1% TPI slash compact
  // pattern counts (§4.2).
  int num_hard_blocks = 40;        ///< number of gated regions
  int hard_block_width = 16;       ///< enable decode width W (P(enable) ~ 2^-W)
  int hard_classes_per_block = 32; ///< incompatible classes per region
  int hard_mode_bits = 6;          ///< mode-code width defining the classes
  double xor_bias = 0.0;           ///< extra XOR/XNOR share (DSP datapaths)

  // High-fanout "hub" signals (enables, mode bits). Hubs with dozens of
  // sinks overload X1 drivers and become the paper's "slow nodes" (§4.4).
  int num_hub_signals = 32;
  double hub_pick_prob = 0.04;

  // DfT / layout policy from §4.1 (consumed by the flow driver).
  int max_chain_length = 100;   ///< balanced-chain target (0 = unlimited)
  int max_chains = 0;           ///< cap on chain count (0 = unlimited)
  double target_row_utilization = 0.97;
  std::vector<double> domain_period_ps;  ///< per-domain target period (0 = none)

  std::uint64_t seed = 1;
};

/// ISCAS'89 s38417 equivalent: 1,636 FFs, ~23k cells, single clock.
CircuitProfile s38417_profile();

/// "Circuit 1": digital control core of a wireless communication IC —
/// two clock domains (8 MHz and 64 MHz), ~33k cells.
CircuitProfile circuit1_profile();

/// p26909: 24-bit DSP core — XOR-rich datapath, 32 scan chains max,
/// 50% row utilisation, 140 MHz target.
CircuitProfile p26909_profile();

/// All three, in the paper's order.
std::vector<CircuitProfile> paper_profiles();

/// Uniformly scale a profile's size (FFs, gates, IOs, hard blocks) by
/// `factor` — used to produce quick-running variants for tests.
CircuitProfile scaled(const CircuitProfile& p, double factor);

}  // namespace tpi
