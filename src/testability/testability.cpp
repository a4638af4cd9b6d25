#include "testability/testability.hpp"

#include <algorithm>
#include <cmath>

namespace tpi {
namespace {

float sat_add(float a, float b) {
  const float s = a + b;
  return s > kScoapInf ? kScoapInf : s;
}

// Enumerate XOR controllability exactly for <=4 inputs: cheapest input
// assignment with the required output parity.
void xor_scoap(const CombNode& node, const std::vector<float>& cc0,
               const std::vector<float>& cc1, bool invert, float& out0, float& out1) {
  const int n = node.num_inputs;
  float best_even = kScoapInf, best_odd = kScoapInf;
  for (int mask = 0; mask < (1 << n); ++mask) {
    float cost = 0;
    int ones = 0;
    for (int i = 0; i < n; ++i) {
      const auto net = static_cast<std::size_t>(node.in[i]);
      if (mask & (1 << i)) {
        cost = sat_add(cost, cc1[net]);
        ++ones;
      } else {
        cost = sat_add(cost, cc0[net]);
      }
    }
    if (ones % 2) {
      best_odd = std::min(best_odd, cost);
    } else {
      best_even = std::min(best_even, cost);
    }
  }
  // XOR: odd parity -> 1. XNOR inverts.
  out1 = sat_add(invert ? best_even : best_odd, 1.0f);
  out0 = sat_add(invert ? best_odd : best_even, 1.0f);
}

}  // namespace

float cop_node_p1(const CombNode& node, const float* p1_by_net) {
  auto p = [&](int i) { return p1_by_net[node.in[i]]; };
  switch (node.func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:
      return p(0);
    case CellFunc::kInv:
      return 1.0f - p(0);
    case CellFunc::kAnd:
    case CellFunc::kNand: {
      float prod = 1.0f;
      for (int i = 0; i < node.num_inputs; ++i) prod *= p(i);
      return node.func == CellFunc::kAnd ? prod : 1.0f - prod;
    }
    case CellFunc::kOr:
    case CellFunc::kNor: {
      float prod = 1.0f;
      for (int i = 0; i < node.num_inputs; ++i) prod *= 1.0f - p(i);
      return node.func == CellFunc::kOr ? 1.0f - prod : prod;
    }
    case CellFunc::kXor:
    case CellFunc::kXnor: {
      float podd = 0.0f;
      for (int i = 0; i < node.num_inputs; ++i) {
        podd = podd * (1.0f - p(i)) + (1.0f - podd) * p(i);
      }
      return node.func == CellFunc::kXor ? podd : 1.0f - podd;
    }
    case CellFunc::kMux2: {
      const float ps = p1_by_net[node.sel];
      return p(0) * (1.0f - ps) + p(1) * ps;
    }
    default:
      return 0.5f;
  }
}

TestabilityResult analyze_testability(const CombModel& model) {
  const std::size_t n_nets = model.num_nets();
  TestabilityResult r;
  r.cc0.assign(n_nets, kScoapInf);
  r.cc1.assign(n_nets, kScoapInf);
  r.co.assign(n_nets, kScoapInf);
  r.p1.assign(n_nets, 0.5f);
  r.obs.assign(n_nets, 0.0f);

  // Controllable inputs.
  for (const NetId net : model.input_nets()) {
    r.cc0[static_cast<std::size_t>(net)] = 1.0f;
    r.cc1[static_cast<std::size_t>(net)] = 1.0f;
    r.p1[static_cast<std::size_t>(net)] = 0.5f;
  }
  for (const NetId net : model.const0_nets()) {
    r.cc0[static_cast<std::size_t>(net)] = 1.0f;
    r.p1[static_cast<std::size_t>(net)] = 0.0f;
  }
  for (const NetId net : model.const1_nets()) {
    r.cc1[static_cast<std::size_t>(net)] = 1.0f;
    r.p1[static_cast<std::size_t>(net)] = 1.0f;
  }

  // ---- forward pass: controllability ----
  for (const CombNode& node : model.nodes()) {
    if (node.out == kNoNet) continue;
    const auto out = static_cast<std::size_t>(node.out);
    auto in0 = [&](int i) { return r.cc0[static_cast<std::size_t>(node.in[i])]; };
    auto in1 = [&](int i) { return r.cc1[static_cast<std::size_t>(node.in[i])]; };
    // COP has one definition, shared with the TPI gain evaluator.
    r.p1[out] = cop_node_p1(node, r.p1.data());
    switch (node.func) {
      case CellFunc::kBuf:
      case CellFunc::kClkBuf:
      case CellFunc::kTsff:
        r.cc0[out] = sat_add(in0(0), 1.0f);
        r.cc1[out] = sat_add(in1(0), 1.0f);
        break;
      case CellFunc::kInv:
        r.cc0[out] = sat_add(in1(0), 1.0f);
        r.cc1[out] = sat_add(in0(0), 1.0f);
        break;
      case CellFunc::kAnd:
      case CellFunc::kNand: {
        float sum1 = 0, min0 = kScoapInf;
        for (int i = 0; i < node.num_inputs; ++i) {
          sum1 = sat_add(sum1, in1(i));
          min0 = std::min(min0, in0(i));
        }
        const float c1 = sat_add(sum1, 1.0f), c0 = sat_add(min0, 1.0f);
        if (node.func == CellFunc::kAnd) {
          r.cc1[out] = c1;
          r.cc0[out] = c0;
        } else {
          r.cc0[out] = c1;
          r.cc1[out] = c0;
        }
        break;
      }
      case CellFunc::kOr:
      case CellFunc::kNor: {
        float sum0 = 0, min1 = kScoapInf;
        for (int i = 0; i < node.num_inputs; ++i) {
          sum0 = sat_add(sum0, in0(i));
          min1 = std::min(min1, in1(i));
        }
        const float c0 = sat_add(sum0, 1.0f), c1 = sat_add(min1, 1.0f);
        if (node.func == CellFunc::kOr) {
          r.cc0[out] = c0;
          r.cc1[out] = c1;
        } else {
          r.cc1[out] = c0;
          r.cc0[out] = c1;
        }
        break;
      }
      case CellFunc::kXor:
      case CellFunc::kXnor:
        xor_scoap(node, r.cc0, r.cc1, node.func == CellFunc::kXnor, r.cc0[out], r.cc1[out]);
        break;
      case CellFunc::kMux2: {
        const auto sel = static_cast<std::size_t>(node.sel);
        const float s0 = r.cc0[sel], s1 = r.cc1[sel];
        r.cc0[out] = sat_add(std::min(sat_add(s0, in0(0)), sat_add(s1, in0(1))), 1.0f);
        r.cc1[out] = sat_add(std::min(sat_add(s0, in1(0)), sat_add(s1, in1(1))), 1.0f);
        break;
      }
      default:
        break;
    }
  }

  // ---- backward pass: observability ----
  for (const NetId net : model.observe_nets()) {
    r.co[static_cast<std::size_t>(net)] = 0.0f;
    r.obs[static_cast<std::size_t>(net)] = 1.0f;
  }
  const auto& nodes = model.nodes();
  for (std::size_t k = nodes.size(); k-- > 0;) {
    const CombNode& node = nodes[k];
    if (node.out == kNoNet) continue;
    const auto out = static_cast<std::size_t>(node.out);
    const float co_out = r.co[out];
    const float obs_out = r.obs[out];
    auto relax = [&](NetId in_net, float co_extra, float obs_factor) {
      const auto in = static_cast<std::size_t>(in_net);
      r.co[in] = std::min(r.co[in], sat_add(co_out, sat_add(co_extra, 1.0f)));
      r.obs[in] = std::max(r.obs[in], obs_out * obs_factor);
    };
    switch (node.func) {
      case CellFunc::kBuf:
      case CellFunc::kClkBuf:
      case CellFunc::kTsff:
      case CellFunc::kInv:
        relax(node.in[0], 0.0f, 1.0f);
        break;
      case CellFunc::kAnd:
      case CellFunc::kNand:
        for (int i = 0; i < node.num_inputs; ++i) {
          float side_cc = 0, side_p = 1.0f;
          for (int j = 0; j < node.num_inputs; ++j) {
            if (j == i) continue;
            side_cc = sat_add(side_cc, r.cc1[static_cast<std::size_t>(node.in[j])]);
            side_p *= r.p1[static_cast<std::size_t>(node.in[j])];
          }
          relax(node.in[i], side_cc, side_p);
        }
        break;
      case CellFunc::kOr:
      case CellFunc::kNor:
        for (int i = 0; i < node.num_inputs; ++i) {
          float side_cc = 0, side_p = 1.0f;
          for (int j = 0; j < node.num_inputs; ++j) {
            if (j == i) continue;
            side_cc = sat_add(side_cc, r.cc0[static_cast<std::size_t>(node.in[j])]);
            side_p *= 1.0f - r.p1[static_cast<std::size_t>(node.in[j])];
          }
          relax(node.in[i], side_cc, side_p);
        }
        break;
      case CellFunc::kXor:
      case CellFunc::kXnor:
        for (int i = 0; i < node.num_inputs; ++i) {
          float side_cc = 0;
          for (int j = 0; j < node.num_inputs; ++j) {
            if (j == i) continue;
            const auto jn = static_cast<std::size_t>(node.in[j]);
            side_cc = sat_add(side_cc, std::min(r.cc0[jn], r.cc1[jn]));
          }
          relax(node.in[i], side_cc, 1.0f);  // XOR always propagates
        }
        break;
      case CellFunc::kMux2: {
        const auto sel = static_cast<std::size_t>(node.sel);
        const float ps = r.p1[sel];
        relax(node.in[0], r.cc0[sel], 1.0f - ps);
        relax(node.in[1], r.cc1[sel], ps);
        const auto a = static_cast<std::size_t>(node.in[0]);
        const auto b = static_cast<std::size_t>(node.in[1]);
        const float differ_cc =
            std::min(sat_add(r.cc0[a], r.cc1[b]), sat_add(r.cc1[a], r.cc0[b]));
        const float differ_p = r.p1[a] * (1.0f - r.p1[b]) + r.p1[b] * (1.0f - r.p1[a]);
        relax(node.sel, differ_cc, differ_p);
        break;
      }
      default:
        break;
    }
  }

  return r;
}

}  // namespace tpi
