// Exhaustive equivalence of the two-plane ternary encoding against the
// scalar reference: every op eval_node_tern models, every input count,
// every {0,1,X} input (and MUX select) combination.
#include "sim/ternary_planes.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/ternary.hpp"

namespace tpi {
namespace {

constexpr Tern kTerns[3] = {Tern::k0, Tern::k1, Tern::kX};

struct OpCase {
  CellFunc func;
  int min_inputs;
  int max_inputs;
  bool has_sel;
};

const std::vector<OpCase>& op_cases() {
  static const std::vector<OpCase> cases = {
      {CellFunc::kBuf, 1, 1, false},  {CellFunc::kClkBuf, 1, 1, false},
      {CellFunc::kTsff, 1, 1, false}, {CellFunc::kInv, 1, 1, false},
      {CellFunc::kAnd, 2, 4, false},  {CellFunc::kNand, 2, 4, false},
      {CellFunc::kOr, 2, 4, false},   {CellFunc::kNor, 2, 4, false},
      {CellFunc::kXor, 2, 4, false},  {CellFunc::kXnor, 2, 4, false},
      {CellFunc::kMux2, 2, 2, true},
  };
  return cases;
}

/// Overwrite one lane of a plane pair with a scalar Tern.
template <typename Enc>
void set_lane(Word& p, Word& q, int lane, Tern t) {
  Word tp = 0, tq = 0;
  encode_tern<Enc>(t, tp, tq);
  const Word bit = Word{1} << lane;
  p = (p & ~bit) | (tp & bit);
  q = (q & ~bit) | (tq & bit);
}

template <typename Enc>
void check_encoding() {
  for (const OpCase& c : op_cases()) {
    for (int n = c.min_inputs; n <= c.max_inputs; ++n) {
      const int slots = n + (c.has_sel ? 1 : 0);
      int combos = 1;
      for (int i = 0; i < slots; ++i) combos *= 3;
      // Lane k of one wide evaluation carries combination (k % combos):
      // the same sweep checks every combination in every lane position.
      Word inp[4] = {0, 0, 0, 0}, inq[4] = {0, 0, 0, 0};
      Word sp = 0, sq = 0;
      for (int lane = 0; lane < kWordBits; ++lane) {
        int idx = lane % combos;
        for (int i = 0; i < n; ++i) {
          set_lane<Enc>(inp[i], inq[i], lane, kTerns[idx % 3]);
          idx /= 3;
        }
        set_lane<Enc>(sp, sq, lane, c.has_sel ? kTerns[idx % 3] : Tern::kX);
      }
      Word p = 0, q = 0;
      eval_node_planes<Enc>(c.func, n, inp, inq, sp, sq, p, q);
      // No lane may claim both definite values, whatever the encoding.
      EXPECT_EQ(Enc::ones(p, q) & Enc::zeros(p, q), Word{0});
      for (int lane = 0; lane < kWordBits; ++lane) {
        int idx = lane % combos;
        CombNode node;
        node.func = c.func;
        node.num_inputs = n;
        Tern in[4] = {Tern::kX, Tern::kX, Tern::kX, Tern::kX};
        for (int i = 0; i < n; ++i) {
          in[i] = kTerns[idx % 3];
          idx /= 3;
        }
        const Tern sel = c.has_sel ? kTerns[idx % 3] : Tern::kX;
        const Tern expected = eval_node_tern(node, in, sel);
        EXPECT_EQ(decode_tern<Enc>(p, q, lane), expected)
            << "func=" << static_cast<int>(c.func) << " n=" << n << " lane=" << lane;
      }
    }
  }
}

TEST(TernaryPlanesTest, ValueCareMatchesScalarReferenceExhaustively) {
  check_encoding<EncVC>();
}

TEST(TernaryPlanesTest, ValueCarePreservesCanonicalInvariant) {
  // EncVC requires p & ~q == 0 (an X lane holds a canonical 0 value bit);
  // every op must preserve it or lane comparisons become encoding-noise.
  for (const OpCase& c : op_cases()) {
    for (int n = c.min_inputs; n <= c.max_inputs; ++n) {
      Word inp[4], inq[4], sp = 0, sq = 0;
      for (int i = 0; i < 4; ++i) encode_tern<EncVC>(Tern::kX, inp[i], inq[i]);
      for (int lane = 0; lane < kWordBits; ++lane) {
        for (int i = 0; i < n; ++i) set_lane<EncVC>(inp[i], inq[i], lane, kTerns[(lane + i) % 3]);
        set_lane<EncVC>(sp, sq, lane, kTerns[lane % 3]);
      }
      Word p = 0, q = 0;
      eval_node_planes<EncVC>(c.func, n, inp, inq, sp, sq, p, q);
      EXPECT_EQ(p & ~q, Word{0}) << "func=" << static_cast<int>(c.func) << " n=" << n;
    }
  }
}

TEST(TernaryPlanesTest, EncodeDecodeRoundTrips) {
  for (const Tern t : kTerns) {
    Word p = 0, q = 0;
    encode_tern<EncVC>(t, p, q);
    for (const int lane : {0, 17, 63}) EXPECT_EQ((decode_tern<EncVC>(p, q, lane)), t);
  }
  // from_bits: all lanes known, value straight from the bit.
  const Word bits = 0xDEADBEEFCAFEF00DULL;
  Word p = 0, q = 0;
  EncVC::from_bits(bits, p, q);
  EXPECT_EQ(EncVC::ones(p, q), bits);
  EXPECT_EQ(EncVC::zeros(p, q), ~bits);
}

}  // namespace
}  // namespace tpi
