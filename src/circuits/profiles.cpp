#include "circuits/profiles.hpp"

#include <algorithm>
#include <cmath>

namespace tpi {

CircuitProfile s38417_profile() {
  CircuitProfile p;
  p.name = "s38417";
  p.num_ffs = 1636;          // as reported in §4.1
  p.num_comb_gates = 21500;  // ~23.1k cells total
  p.num_pis = 28;
  p.num_pos = 106;
  p.num_clock_domains = 1;
  p.domain_fraction = {1.0};
  p.target_depth = 30;
  p.num_hard_blocks = 20;   // ~1.2x the 1% TP budget (16 TPs)
  p.hard_block_width = 14;
  p.hard_classes_per_block = 32;
  p.hard_mode_bits = 6;
  p.xor_bias = 0.02;
  p.num_hub_signals = 48;
  p.hub_pick_prob = 0.05;
  p.max_chain_length = 100;
  p.max_chains = 0;
  p.target_row_utilization = 0.97;
  p.domain_period_ps = {0.0};  // no application frequency target
  p.seed = 0x5384171ULL;
  return p;
}

CircuitProfile circuit1_profile() {
  CircuitProfile p;
  p.name = "circuit1";
  p.num_ffs = 2820;
  p.num_comb_gates = 30000;
  p.num_pis = 96;
  p.num_pos = 88;
  p.num_clock_domains = 2;   // 8 MHz and 64 MHz domains (§4.4)
  p.domain_fraction = {0.55, 0.45};
  p.target_depth = 24;
  p.num_hard_blocks = 32;   // 1% TP = 28 TSFFs
  p.hard_block_width = 14;
  p.hard_classes_per_block = 28;
  p.hard_mode_bits = 6;
  p.xor_bias = 0.0;
  p.num_hub_signals = 10;   // milder hubs: no slow nodes reported for circuit1
  p.hub_pick_prob = 0.012;
  p.max_chain_length = 100;
  p.max_chains = 0;
  p.target_row_utilization = 0.97;
  p.domain_period_ps = {125000.0, 15625.0};  // 8 MHz, 64 MHz requirements
  p.seed = 0xC1C1C1ULL;
  return p;
}

CircuitProfile p26909_profile() {
  CircuitProfile p;
  p.name = "p26909";
  p.num_ffs = 3584;
  p.num_comb_gates = 32500;  // 24-bit DSP datapath
  p.num_pis = 140;
  p.num_pos = 120;
  p.num_clock_domains = 1;
  p.domain_fraction = {1.0};
  p.target_depth = 40;       // deep arithmetic paths
  p.num_hard_blocks = 48;    // heavily resistant datapath (79% pattern drop)
  p.hard_block_width = 16;
  p.hard_classes_per_block = 40;
  p.hard_mode_bits = 6;
  p.xor_bias = 0.10;         // adder/multiplier trees
  p.num_hub_signals = 64;
  p.hub_pick_prob = 0.05;
  p.max_chain_length = 0;    // derived from the 32-chain cap
  p.max_chains = 32;
  p.target_row_utilization = 0.50;  // §4.3: 50% to avoid routing congestion
  p.domain_period_ps = {7142.9};    // 140 MHz target (§4.4)
  p.seed = 0x26909ULL;
  return p;
}

std::vector<CircuitProfile> paper_profiles() {
  return {s38417_profile(), circuit1_profile(), p26909_profile()};
}

CircuitProfile scaled(const CircuitProfile& p, double factor) {
  CircuitProfile s = p;
  auto scale = [factor](int v) { return std::max(1, static_cast<int>(std::lround(v * factor))); };
  s.num_ffs = scale(p.num_ffs);
  s.num_comb_gates = scale(p.num_comb_gates);
  s.num_pis = std::max(4, scale(p.num_pis));
  s.num_pos = std::max(4, scale(p.num_pos));
  s.num_hard_blocks = std::max(1, scale(p.num_hard_blocks));
  s.name = p.name + "_x" + std::to_string(factor);
  return s;
}

}  // namespace tpi
