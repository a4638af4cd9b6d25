// Bit-parallel two-plane ternary (0/1/X) encoding.
//
// The scalar Tern byte array of ternary.hpp evaluates one value per net
// visit; a two-plane encoding packs 64 independent ternary values into a
// pair of words, so a full-lane sweep grades 64 (or, at super-batch width,
// 512) X-propagation trajectories per node. The encoding is value/care:
//
//   EncVC — plane p = value, plane q = care. care=1: the lane is a known
//           0/1 held in p; care=0: the lane is X and p is canonically 0
//           (invariant p & ~q == 0, every op below preserves it).
//
// It encodes exactly the ternary algebra of sim/ternary.hpp (including
// tern_mux's "select unknown, outputs agree" rule); the truth-table test
// asserts equality against eval_node_tern for every op and every {0,1,X}
// input combination.
#pragma once

#include "sim/parallel_sim.hpp"
#include "sim/ternary.hpp"

namespace tpi {

/// Value/care planes: p=value, q=care (1 = known). X is (0,0).
struct EncVC {
  static void zero(Word& p, Word& q) { p = 0; q = ~Word{0}; }
  static void one(Word& p, Word& q) { p = ~Word{0}; q = ~Word{0}; }
  static void x(Word& p, Word& q) { p = 0; q = 0; }
  /// All lanes known, values from `bits`.
  static void from_bits(Word bits, Word& p, Word& q) { p = bits; q = ~Word{0}; }
  static Word ones(Word p, Word q) { return p & q; }
  static Word zeros(Word p, Word q) { return q & ~p; }

  static void not_(Word ap, Word aq, Word& p, Word& q) {
    p = aq & ~ap;
    q = aq;
  }
  static void and_(Word ap, Word aq, Word bp, Word bq, Word& p, Word& q) {
    const Word k0 = (aq & ~ap) | (bq & ~bp);  // either side a known 0
    const Word k1 = ap & bp;                  // both known 1 (p subset of q)
    p = k1;
    q = k0 | k1;
  }
  static void or_(Word ap, Word aq, Word bp, Word bq, Word& p, Word& q) {
    const Word k1 = ap | bp;
    const Word k0 = (aq & ~ap) & (bq & ~bp);
    p = k1;
    q = k0 | k1;
  }
  static void xor_(Word ap, Word aq, Word bp, Word bq, Word& p, Word& q) {
    q = aq & bq;
    p = (ap ^ bp) & q;
  }
  /// tern_mux(a, b, s): s=0 -> a, s=1 -> b, s=X -> known only when a and b
  /// agree on a known value.
  static void mux_(Word ap, Word aq, Word bp, Word bq, Word sp, Word sq, Word& p, Word& q) {
    const Word s0 = sq & ~sp;
    const Word s1 = sp;  // p subset of q: known 1
    const Word agree_known = (ap & bp) | (aq & bq & ~(ap | bp));
    q = (s0 & aq) | (s1 & bq) | (~sq & agree_known);
    p = ((s0 & ap) | (s1 & bp) | (~sq & ap & bp)) & q;
  }
};

/// Encode a scalar Tern into all 64 lanes of a plane pair.
template <typename Enc>
inline void encode_tern(Tern t, Word& p, Word& q) {
  if (t == Tern::k0) {
    Enc::zero(p, q);
  } else if (t == Tern::k1) {
    Enc::one(p, q);
  } else {
    Enc::x(p, q);
  }
}

/// Decode one lane of a plane pair back to a scalar Tern.
template <typename Enc>
inline Tern decode_tern(Word p, Word q, int lane) {
  const Word bit = Word{1} << lane;
  if (Enc::ones(p, q) & bit) return Tern::k1;
  if (Enc::zeros(p, q) & bit) return Tern::k0;
  return Tern::kX;
}

/// One-word ternary evaluation of a combinational node: plane pairs for
/// each logic input (and the MUX select) in, one plane pair out. Mirrors
/// eval_node_word's op coverage and eval_node_tern's semantics; shared by
/// the NW-word sweep kernels (applied per word) and the truth-table test.
template <typename Enc>
inline void eval_node_planes(CellFunc func, int num_inputs, const Word* inp, const Word* inq,
                             Word selp, Word selq, Word& p, Word& q) {
  switch (func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
    case CellFunc::kTsff:  // transparent in application mode
      p = inp[0];
      q = inq[0];
      return;
    case CellFunc::kInv:
      Enc::not_(inp[0], inq[0], p, q);
      return;
    case CellFunc::kAnd:
    case CellFunc::kNand: {
      Word ap = inp[0], aq = inq[0];
      for (int i = 1; i < num_inputs; ++i) Enc::and_(ap, aq, inp[i], inq[i], ap, aq);
      if (func == CellFunc::kNand) Enc::not_(ap, aq, ap, aq);
      p = ap;
      q = aq;
      return;
    }
    case CellFunc::kOr:
    case CellFunc::kNor: {
      Word ap = inp[0], aq = inq[0];
      for (int i = 1; i < num_inputs; ++i) Enc::or_(ap, aq, inp[i], inq[i], ap, aq);
      if (func == CellFunc::kNor) Enc::not_(ap, aq, ap, aq);
      p = ap;
      q = aq;
      return;
    }
    case CellFunc::kXor:
    case CellFunc::kXnor: {
      Word ap = inp[0], aq = inq[0];
      for (int i = 1; i < num_inputs; ++i) Enc::xor_(ap, aq, inp[i], inq[i], ap, aq);
      if (func == CellFunc::kXnor) Enc::not_(ap, aq, ap, aq);
      p = ap;
      q = aq;
      return;
    }
    case CellFunc::kMux2:
      Enc::mux_(inp[0], inq[0], inp[1], inq[1], selp, selq, p, q);
      return;
    default:
      // eval_node_tern returns X for anything it does not model.
      Enc::x(p, q);
      return;
  }
}

}  // namespace tpi
