#include "util/rank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
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

// Placement-size keys: ~25k cell coordinates bunched around a few centres,
// with exact duplicates (cells pulled to one centroid) and signed zeros.
std::vector<double> clustered_keys(Rng& rng) {
  constexpr std::size_t kKeys = 25'000;
  const double centres[] = {-40.0, 0.0, 0.5, 310.25, 1200.0};
  std::vector<double> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const double c = centres[rng.next_below(5)];
    switch (rng.next_below(4)) {
      case 0: keys[i] = c; break;                                      // exact duplicate
      case 1: keys[i] = rng.next_below(2) != 0 ? 0.0 : -0.0; break;   // ±0
      default: keys[i] = c + (rng.next_double() - 0.5) * 1e-3;        // tight cluster
    }
  }
  return keys;
}

TEST(RankByKeyTest, PlacementSizeClusteredKeys) {
  Rng rng(0xc1u);
  expect_stable_order(clustered_keys(rng), "clustered");
}

TEST(RankByKeyTest, PlacementSizeKeysWithNonFiniteFallBack) {
  // Two odd keys among placement keys. An infinity, or ±DBL_MAX whose range
  // overflows, takes the comparison-sort fallback; subnormals alone do not.
  Rng rng(0xc2u);
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  const std::pair<double, double> odd_pairs[] = {{inf, 3 * den}, {-inf, den}, {den, -3 * den},
                                                 {big, -big}};
  for (const auto& [first, second] : odd_pairs) {
    std::vector<double> keys = clustered_keys(rng);
    keys[rng.next_below(keys.size())] = first;
    keys[rng.next_below(keys.size())] = second;
    expect_stable_order(keys, "clustered with two odd keys");
  }
}

}  // namespace
}  // namespace tpi
