#include "sim/ternary.hpp"

#include "sim/parallel_sim.hpp"

#include <gtest/gtest.h>

namespace tpi {
namespace {

TEST(TernaryTest, NotTable) {
  EXPECT_EQ(tern_not(Tern::k0), Tern::k1);
  EXPECT_EQ(tern_not(Tern::k1), Tern::k0);
  EXPECT_EQ(tern_not(Tern::kX), Tern::kX);
}

TEST(TernaryTest, AndDominatedByZero) {
  EXPECT_EQ(tern_and(Tern::k0, Tern::kX), Tern::k0);
  EXPECT_EQ(tern_and(Tern::kX, Tern::k0), Tern::k0);
  EXPECT_EQ(tern_and(Tern::k1, Tern::k1), Tern::k1);
  EXPECT_EQ(tern_and(Tern::k1, Tern::kX), Tern::kX);
  EXPECT_EQ(tern_and(Tern::kX, Tern::kX), Tern::kX);
}

TEST(TernaryTest, OrDominatedByOne) {
  EXPECT_EQ(tern_or(Tern::k1, Tern::kX), Tern::k1);
  EXPECT_EQ(tern_or(Tern::kX, Tern::k1), Tern::k1);
  EXPECT_EQ(tern_or(Tern::k0, Tern::k0), Tern::k0);
  EXPECT_EQ(tern_or(Tern::k0, Tern::kX), Tern::kX);
}

TEST(TernaryTest, XorUnknownIfAnyUnknown) {
  EXPECT_EQ(tern_xor(Tern::k1, Tern::k0), Tern::k1);
  EXPECT_EQ(tern_xor(Tern::k1, Tern::k1), Tern::k0);
  EXPECT_EQ(tern_xor(Tern::kX, Tern::k0), Tern::kX);
  EXPECT_EQ(tern_xor(Tern::k1, Tern::kX), Tern::kX);
}

TEST(TernaryTest, MuxWithKnownSelect) {
  EXPECT_EQ(tern_mux(Tern::k1, Tern::k0, Tern::k0), Tern::k1);
  EXPECT_EQ(tern_mux(Tern::k1, Tern::k0, Tern::k1), Tern::k0);
  EXPECT_EQ(tern_mux(Tern::kX, Tern::k0, Tern::k1), Tern::k0);
}

TEST(TernaryTest, MuxWithUnknownSelect) {
  // Output known only if both data inputs agree.
  EXPECT_EQ(tern_mux(Tern::k1, Tern::k1, Tern::kX), Tern::k1);
  EXPECT_EQ(tern_mux(Tern::k0, Tern::k0, Tern::kX), Tern::k0);
  EXPECT_EQ(tern_mux(Tern::k1, Tern::k0, Tern::kX), Tern::kX);
  EXPECT_EQ(tern_mux(Tern::kX, Tern::kX, Tern::kX), Tern::kX);
}

TEST(TernaryTest, NodeEvalConsistentWithWordSim) {
  // For every 2-input function and every definite input pair, ternary and
  // word evaluation must agree.
  for (const CellFunc func : {CellFunc::kAnd, CellFunc::kNand, CellFunc::kOr, CellFunc::kNor,
                              CellFunc::kXor, CellFunc::kXnor}) {
    CombNode node;
    node.func = func;
    node.num_inputs = 2;
    node.in[0] = 0;
    node.in[1] = 1;
    node.out = 2;
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        const Tern tin[2] = {a ? Tern::k1 : Tern::k0, b ? Tern::k1 : Tern::k0};
        const Word win[2] = {a ? ~Word{0} : 0, b ? ~Word{0} : 0};
        const Tern tr = eval_node_tern(node, tin, Tern::kX);
        const Word wr = eval_node_word(node, win, 0);
        const bool tr_bit = tr == Tern::k1;
        const bool wr_bit = (wr & 1) != 0;
        EXPECT_EQ(tr_bit, wr_bit)
            << static_cast<int>(func) << " a=" << a << " b=" << b;
        EXPECT_NE(tr, Tern::kX);
      }
    }
  }
}

TEST(TernaryTest, PartialInputsMayResolve) {
  CombNode node;
  node.func = CellFunc::kNand;
  node.num_inputs = 2;
  node.out = 2;
  const Tern one_zero[2] = {Tern::k0, Tern::kX};
  EXPECT_EQ(eval_node_tern(node, one_zero, Tern::kX), Tern::k1);  // controlling 0
  const Tern one_x[2] = {Tern::k1, Tern::kX};
  EXPECT_EQ(eval_node_tern(node, one_x, Tern::kX), Tern::kX);
}

TEST(TernaryTest, CompositeCodeEvalMatchesScalarExhaustively) {
  // Every func eval_node_tern handles (plus an unmodelled one, which is X
  // in both circuits), arity 1-4 (MUX: 2 data inputs plus select), all 9^n
  // composite input codes: one table pass equals two scalar evaluations.
  for (const CellFunc func :
       {CellFunc::kBuf, CellFunc::kClkBuf, CellFunc::kTsff, CellFunc::kInv, CellFunc::kAnd,
        CellFunc::kNand, CellFunc::kOr, CellFunc::kNor, CellFunc::kXor, CellFunc::kXnor,
        CellFunc::kMux2, CellFunc::kTie0}) {
    const bool mux = func == CellFunc::kMux2;
    for (int n = mux ? 2 : 1; n <= (mux ? 2 : 4); ++n) {
      const int slots = n + (mux ? 1 : 0);
      int combos = 1;
      for (int i = 0; i < slots; ++i) combos *= 9;
      CombNode node;
      node.func = func;
      node.num_inputs = n;
      for (int idx = 0; idx < combos; ++idx) {
        TernCode code[4];
        Tern good[4], faulty[4];
        for (int i = 0, rest = idx; i < slots; ++i, rest /= 9) {
          code[i] = static_cast<TernCode>(rest % 9);
          if (i < n) {
            good[i] = code_good(code[i]);
            faulty[i] = code_faulty(code[i]);
          }
        }
        const TernCode sel = mux ? code[n] : kCodeXX;
        const TernCode expected = tern_code(eval_node_tern(node, good, code_good(sel)),
                                            eval_node_tern(node, faulty, code_faulty(sel)));
        ASSERT_EQ(eval_node_code(func, n, code, sel), expected)
            << "func=" << static_cast<int>(func) << " n=" << n << " idx=" << idx;
      }
    }
  }
}

TEST(TernaryTest, CompositeCodeHelpers) {
  for (const Tern g : {Tern::k0, Tern::k1, Tern::kX}) {
    for (const Tern f : {Tern::k0, Tern::k1, Tern::kX}) {
      const TernCode c = tern_code(g, f);
      EXPECT_EQ(code_good(c), g);
      EXPECT_EQ(code_faulty(c), f);
      EXPECT_EQ(code_known(c), g != Tern::kX && f != Tern::kX);
      EXPECT_EQ(code_is_d(c), g != Tern::kX && f != Tern::kX && g != f);
      EXPECT_EQ(code_with_faulty(c, Tern::k1), tern_code(g, Tern::k1));
    }
  }
  EXPECT_EQ(tern_code(Tern::kX, Tern::kX), kCodeXX);
}

}  // namespace
}  // namespace tpi
