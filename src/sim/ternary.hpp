// Three-valued (0/1/X) logic used by the PODEM test generator.
#pragma once

#include <cstdint>

#include "sim/comb_model.hpp"

namespace tpi {

enum class Tern : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

inline Tern tern_not(Tern a) {
  if (a == Tern::kX) return Tern::kX;
  return a == Tern::k0 ? Tern::k1 : Tern::k0;
}

inline Tern tern_and(Tern a, Tern b) {
  if (a == Tern::k0 || b == Tern::k0) return Tern::k0;
  if (a == Tern::k1 && b == Tern::k1) return Tern::k1;
  return Tern::kX;
}

inline Tern tern_or(Tern a, Tern b) {
  if (a == Tern::k1 || b == Tern::k1) return Tern::k1;
  if (a == Tern::k0 && b == Tern::k0) return Tern::k0;
  return Tern::kX;
}

inline Tern tern_xor(Tern a, Tern b) {
  if (a == Tern::kX || b == Tern::kX) return Tern::kX;
  return a == b ? Tern::k0 : Tern::k1;
}

inline Tern tern_mux(Tern a, Tern b, Tern s) {
  if (s == Tern::k0) return a;
  if (s == Tern::k1) return b;
  // s unknown: output known only when both data inputs agree on a value.
  if (a == b && a != Tern::kX) return a;
  return Tern::kX;
}

/// Evaluate a combinational node over ternary inputs.
inline Tern eval_node_tern(const CombNode& node, const Tern* in, Tern sel) {
  switch (node.func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:
      return in[0];
    case CellFunc::kInv:
      return tern_not(in[0]);
    case CellFunc::kAnd:
    case CellFunc::kNand: {
      Tern acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc = tern_and(acc, in[i]);
      return node.func == CellFunc::kAnd ? acc : tern_not(acc);
    }
    case CellFunc::kOr:
    case CellFunc::kNor: {
      Tern acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc = tern_or(acc, in[i]);
      return node.func == CellFunc::kOr ? acc : tern_not(acc);
    }
    case CellFunc::kXor:
    case CellFunc::kXnor: {
      Tern acc = in[0];
      for (int i = 1; i < node.num_inputs; ++i) acc = tern_xor(acc, in[i]);
      return node.func == CellFunc::kXor ? acc : tern_not(acc);
    }
    case CellFunc::kMux2:
      return tern_mux(in[0], in[1], sel);
    default:
      return Tern::kX;
  }
}

}  // namespace tpi
