// Three-valued (0/1/X) logic used by the PODEM test generator.
#pragma once

#include <array>
#include <cstdint>

#include "sim/comb_model.hpp"

namespace tpi {

enum class Tern : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

constexpr Tern tern_not(Tern a) {
  if (a == Tern::kX) return Tern::kX;
  return a == Tern::k0 ? Tern::k1 : Tern::k0;
}

constexpr Tern tern_and(Tern a, Tern b) {
  if (a == Tern::k0 || b == Tern::k0) return Tern::k0;
  if (a == Tern::k1 && b == Tern::k1) return Tern::k1;
  return Tern::kX;
}

constexpr Tern tern_or(Tern a, Tern b) {
  if (a == Tern::k1 || b == Tern::k1) return Tern::k1;
  if (a == Tern::k0 && b == Tern::k0) return Tern::k0;
  return Tern::kX;
}

constexpr Tern tern_xor(Tern a, Tern b) {
  if (a == Tern::kX || b == Tern::kX) return Tern::kX;
  return a == b ? Tern::k0 : Tern::k1;
}

constexpr Tern tern_mux(Tern a, Tern b, Tern s) {
  if (s == Tern::k0) return a;
  if (s == Tern::k1) return b;
  // s unknown: output known only when both data inputs agree on a value.
  if (a == b && a != Tern::kX) return a;
  return Tern::kX;
}

/// Evaluate a combinational node over ternary inputs (the reference
/// semantics; the composite tables below are derived from the same ops).
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

// Composite good/faulty codes: one byte per net holds 3 * good + faulty
// (0..8), so PODEM reads, compares and evaluates both circuits at once.
// Code 8 is (X, X); a D or D-bar is a code whose parts are known and differ.
using TernCode = std::uint8_t;

constexpr TernCode kCodeXX = 8;

constexpr TernCode tern_code(Tern good, Tern faulty) {
  return static_cast<TernCode>(3 * static_cast<int>(good) + static_cast<int>(faulty));
}
constexpr Tern code_good(TernCode c) { return static_cast<Tern>(c / 3); }
constexpr Tern code_faulty(TernCode c) { return static_cast<Tern>(c % 3); }
/// Keep the good part, replace the faulty part (fault injection).
constexpr TernCode code_with_faulty(TernCode c, Tern faulty) {
  return tern_code(code_good(c), faulty);
}
/// Both circuits know the value: codes 0, 1, 3 and 4 (a bit test, since
/// PODEM asks this of every reader it visits).
constexpr bool code_known(TernCode c) { return ((0x1Bu >> c) & 1u) != 0; }
/// The circuits disagree on known values: the net carries a fault effect
/// (codes 1 and 3).
constexpr bool code_is_d(TernCode c) { return ((0x0Au >> c) & 1u) != 0; }

/// Lookup tables over composite codes, each entry the scalar op applied to
/// the good parts and to the faulty parts, so the algebra stays defined once.
struct TernCodeTables {
  std::array<std::array<TernCode, 9>, 9> and_{}, or_{}, xor_{};
  std::array<TernCode, 9> not_{};
  std::array<TernCode, 729> mux{};  ///< index 81 * a + 9 * b + sel
};

constexpr TernCodeTables make_tern_code_tables() {
  TernCodeTables t;
  for (int a = 0; a < 9; ++a) {
    const auto ca = static_cast<TernCode>(a);
    t.not_[a] = tern_code(tern_not(code_good(ca)), tern_not(code_faulty(ca)));
    for (int b = 0; b < 9; ++b) {
      const auto cb = static_cast<TernCode>(b);
      const Tern ga = code_good(ca), gb = code_good(cb);
      const Tern fa = code_faulty(ca), fb = code_faulty(cb);
      t.and_[a][b] = tern_code(tern_and(ga, gb), tern_and(fa, fb));
      t.or_[a][b] = tern_code(tern_or(ga, gb), tern_or(fa, fb));
      t.xor_[a][b] = tern_code(tern_xor(ga, gb), tern_xor(fa, fb));
      for (int s = 0; s < 9; ++s) {
        const auto cs = static_cast<TernCode>(s);
        t.mux[81 * a + 9 * b + s] = tern_code(tern_mux(ga, gb, code_good(cs)),
                                              tern_mux(fa, fb, code_faulty(cs)));
      }
    }
  }
  return t;
}

inline constexpr TernCodeTables kTernCodeTables = make_tern_code_tables();

/// eval_node_tern over composite codes: both circuits in one pass. Folds
/// the inputs through one table, then inverts for NAND/NOR/XNOR/INV.
inline TernCode eval_node_code(CellFunc func, int num_inputs, const TernCode* in, TernCode sel) {
  const TernCodeTables& t = kTernCodeTables;
  const auto fold = [&](const std::array<std::array<TernCode, 9>, 9>& table) {
    TernCode acc = in[0];
    for (int i = 1; i < num_inputs; ++i) acc = table[acc][in[i]];
    return acc;
  };
  switch (func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:
      return in[0];
    case CellFunc::kInv:
      return t.not_[in[0]];
    case CellFunc::kAnd:
      return fold(t.and_);
    case CellFunc::kNand:
      return t.not_[fold(t.and_)];
    case CellFunc::kOr:
      return fold(t.or_);
    case CellFunc::kNor:
      return t.not_[fold(t.or_)];
    case CellFunc::kXor:
      return fold(t.xor_);
    case CellFunc::kXnor:
      return t.not_[fold(t.xor_)];
    case CellFunc::kMux2:
      return t.mux[81 * in[0] + 9 * in[1] + sel];
    default:
      return kCodeXX;
  }
}

}  // namespace tpi
