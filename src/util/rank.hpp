// Stable ranking of double keys (placement spreading and legalisation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tpi {

/// Indices 0..keys.size()-1 in ascending key order, ties in index order:
/// exactly what std::stable_sort with operator< leaves of an iota, for keys
/// without NaN. One counting pass scatters the indices into buckets of a
/// monotone map of [min, max] (one bucket per key on average), then each
/// bucket is sorted stably by key. Any non-finite key (or a key range the
/// map cannot scale) falls back to std::stable_sort.
std::vector<std::uint32_t> rank_by_key(std::span<const double> keys);

}  // namespace tpi
