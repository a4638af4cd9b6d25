// Testability analysis: SCOAP and COP.
//
// §3.1 of the paper: "Several testability analysis measures are computed at
// the beginning of each iteration, including SCOAP, COP, and TC values for
// each signal line, and the sizes of fanout-free regions." SCOAP and COP
// drive test-point selection here; region sizes are not computed, because
// the hybrid ranking (tpi.hpp) does not use them. All analyses run on the capture-view
// combinational model, where scan flip-flops (and TSFFs) are fully
// controllable/observable boundaries — which is exactly why inserting a
// TSFF resets the local testability figures.
#pragma once

#include <vector>

#include "sim/comb_model.hpp"

namespace tpi {

struct TestabilityResult {
  // SCOAP (Goldstein): combinational 0/1-controllability and observability.
  // Indexed by NetId; saturating arithmetic, kScoapInf for unreachable.
  std::vector<float> cc0;
  std::vector<float> cc1;
  std::vector<float> co;

  // COP (Brglez): signal probability p1 and observation probability obs.
  std::vector<float> p1;
  std::vector<float> obs;

  /// COP detection probability of a stuck-at fault on `net`.
  float detect_prob_sa0(NetId net) const {
    return p1[static_cast<std::size_t>(net)] * obs[static_cast<std::size_t>(net)];
  }
  float detect_prob_sa1(NetId net) const {
    return (1.0f - p1[static_cast<std::size_t>(net)]) * obs[static_cast<std::size_t>(net)];
  }
  /// Probability that a random pattern detects the harder of the two
  /// stuck-at faults on this net — the TPI selection metric.
  float detect_prob_min(NetId net) const {
    const float a = detect_prob_sa0(net);
    const float b = detect_prob_sa1(net);
    return a < b ? a : b;
  }
};

inline constexpr float kScoapInf = 1e9f;

TestabilityResult analyze_testability(const CombModel& model);

/// COP signal probability of one node's output given per-net p1 values.
/// Exposed so the TPI gain computation can re-evaluate a fanout cone with a
/// hypothetical control point applied (Seiss-style gradient).
float cop_node_p1(const CombNode& node, const float* p1_by_net);

}  // namespace tpi
