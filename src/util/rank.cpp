#include "util/rank.hpp"

#include <array>
#include <cassert>
#include <cstring>
#include <limits>

namespace tpi {
namespace {

// Unsigned image of a non-NaN double with a < b iff image(a) < image(b).
// operator< holds -0.0 and +0.0 equal, so both map to +0.0's image.
std::uint64_t ordered_bits(double d) {
  if (d == 0.0) d = 0.0;
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (u & kSign) != 0 ? ~u : u | kSign;
}

}  // namespace

std::vector<std::uint32_t> rank_by_key(std::span<const double> keys) {
  constexpr int kDigitBits = 8;
  constexpr int kDigits = 64 / kDigitBits;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const std::size_t n = keys.size();
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  auto digit = [](std::uint64_t key, int d) {
    return static_cast<std::size_t>((key >> (d * kDigitBits)) & (kRadix - 1));
  };
  std::vector<std::uint64_t> key(n), key_out(n);
  std::vector<std::uint32_t> order(n), order_out(n);
  std::array<std::array<std::uint32_t, kRadix>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = ordered_bits(keys[i]);
    order[i] = static_cast<std::uint32_t>(i);
    for (int d = 0; d < kDigits; ++d) ++count[static_cast<std::size_t>(d)][digit(key[i], d)];
  }
  // Least significant digit first; each scatter pass is stable, so equal
  // keys keep their index order. A digit all keys share moves nothing.
  for (int d = 0; d < kDigits && n > 1; ++d) {
    auto& bucket = count[static_cast<std::size_t>(d)];
    if (bucket[digit(key[0], d)] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& c : bucket) {
      const std::uint32_t size = c;
      c = start;
      start += size;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t to = bucket[digit(key[i], d)]++;
      key_out[to] = key[i];
      order_out[to] = order[i];
    }
    key.swap(key_out);
    order.swap(order_out);
  }
  return order;
}

}  // namespace tpi
