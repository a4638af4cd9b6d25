#include "util/rank.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace tpi {
namespace {

// Inputs and buckets up to this size are insertion-sorted: no counting
// pass, no std::stable_sort buffer.
constexpr std::size_t kInsertionSortMax = 32;

// Stable insertion sort of order[lo, hi) by key: an element moves left only
// past strictly greater keys, so ties keep their order.
void insertion_sort(std::span<const double> keys, std::uint32_t* lo, std::uint32_t* hi) {
  for (std::uint32_t* i = lo + 1; i < hi; ++i) {
    const std::uint32_t v = *i;
    const double k = keys[v];
    std::uint32_t* j = i;
    for (; j > lo && keys[*(j - 1)] > k; --j) *j = *(j - 1);
    *j = v;
  }
}

}  // namespace

std::vector<std::uint32_t> rank_by_key(std::span<const double> keys) {
  const std::size_t n = keys.size();
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n <= kInsertionSortMax) {
    insertion_sort(keys, order.data(), order.data() + n);
    return order;
  }
  double lo = keys[0], hi = keys[0];
  bool finite = true;
  for (const double k : keys) {
    finite &= std::isfinite(k);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  if (lo == hi && finite) return order;  // every key equal
  // One bucket per key on average. A scale that overflows (a subnormal
  // range) or a range that does (keys near ±DBL_MAX) is as unusable as a
  // non-finite key: sort by comparisons, so nothing non-finite is ever
  // converted to an integer.
  const std::size_t buckets = n;
  const double range = hi - lo;
  const double scale = static_cast<double>(buckets) / range;
  if (!finite || !std::isfinite(range) || !std::isfinite(scale)) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
    return order;
  }
  // (k - lo) * scale is monotone in k, since each rounding step is, and lies
  // in [0, buckets] up to one rounding; -0.0 and +0.0 land in one bucket.
  auto bucket = [&](double k) {
    return std::min(static_cast<std::size_t>((k - lo) * scale), buckets - 1);
  };
  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const double k : keys) ++start[bucket(k) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  // Scatter in index order: each bucket's slice holds its keys' indices
  // ascending, and bucket order is key order between buckets.
  for (std::size_t i = 0; i < n; ++i) order[start[bucket(keys[i])]++] = static_cast<std::uint32_t>(i);
  // start[b] is now the end of bucket b; sort within each bucket, stably.
  std::uint32_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t end = start[b];
    if (end - begin > kInsertionSortMax) {
      std::stable_sort(order.begin() + begin, order.begin() + end,
                       [&](std::uint32_t x, std::uint32_t y) { return keys[x] < keys[y]; });
    } else if (end - begin > 1) {
      insertion_sort(keys, order.data() + begin, order.data() + end);
    }
    begin = end;
  }
  return order;
}

}  // namespace tpi
