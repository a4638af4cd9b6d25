#include "util/rank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace tpi {
namespace {

// The order std::stable_sort with operator< leaves of an iota.
std::vector<std::uint32_t> stable_order(const std::vector<double>& keys) {
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  return order;
}

void expect_stable_order(const std::vector<double>& keys, const char* what) {
  EXPECT_EQ(rank_by_key(keys), stable_order(keys)) << what << " n=" << keys.size();
}

TEST(RankByKeyTest, TinyInputs) {
  expect_stable_order({}, "empty");
  expect_stable_order({3.5}, "one");
  expect_stable_order({2.0, 1.0}, "two descending");
  expect_stable_order({1.0, 2.0}, "two ascending");
  expect_stable_order({7.0, 7.0}, "two equal");
}

TEST(RankByKeyTest, AllEqualKeysKeepIndexOrder) {
  const std::vector<double> keys(1000, 42.25);
  std::vector<std::uint32_t> iota(keys.size());
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(rank_by_key(keys), iota);
}

TEST(RankByKeyTest, NegativeZeroTiesWithPositiveZero) {
  // operator< holds -0.0 == +0.0, so the two keep their index order.
  expect_stable_order({0.0, -0.0, 0.0, -0.0, -1.0, 1.0, -0.0}, "signed zeros");
  expect_stable_order({-0.0, 0.0}, "-0 first");
  expect_stable_order({0.0, -0.0}, "+0 first");
}

TEST(RankByKeyTest, SpecialMagnitudes) {
  const double den = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const double big = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  expect_stable_order({den, -den, 0.0, -0.0, 3 * den, -3 * den, tiny, -tiny, tiny / 2,
                       -tiny / 2, big, -big, inf, -inf, 1.0, -1.0, den, -den},
                      "subnormals, extremes and infinities");
}

TEST(RankByKeyTest, MatchesStableSortOnRandomKeys) {
  Rng rng(0x5eed);
  for (const std::size_t n : {3u, 17u, 255u, 256u, 257u, 5000u}) {
    std::vector<double> wide(n), dup(n), neg(n), sub(n);
    for (std::size_t i = 0; i < n; ++i) {
      wide[i] = (rng.next_double() - 0.5) * 1e6;
      dup[i] = static_cast<double>(rng.next_below(5)) * 0.5 - 1.0;  // many ties, -1..1
      neg[i] = -rng.next_double() * 300.0;
      sub[i] = static_cast<double>(rng.next_range(-40, 40)) *
               std::numeric_limits<double>::denorm_min();
    }
    expect_stable_order(wide, "wide");
    expect_stable_order(dup, "duplicates");
    expect_stable_order(neg, "negative");
    expect_stable_order(sub, "subnormal");
  }
}

}  // namespace
}  // namespace tpi
