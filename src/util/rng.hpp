// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic steps in the flow (circuit generation, ATPG random fill,
// LBIST loads) draw from an Rng seeded explicitly, so a given
// seed always reproduces the same tables.
#pragma once

#include <cstdint>
#include <utility>

namespace tpi {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and byte-for-byte
/// reproducible across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 yields 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5);

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    const std::size_t n = c.size();
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace tpi
