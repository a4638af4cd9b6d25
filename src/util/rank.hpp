// Linear-time stable ranking of double keys (placement spreading and
// legalisation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tpi {

/// Indices 0..keys.size()-1 in ascending key order, ties in index order:
/// exactly what std::stable_sort with operator< leaves of an iota, for keys
/// without NaN. A stable LSD radix sort over order-preserving 64-bit images
/// of the keys, so it makes no comparisons and reads each key once.
std::vector<std::uint32_t> rank_by_key(std::span<const double> keys);

}  // namespace tpi
