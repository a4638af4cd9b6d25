// SIMD backend selection for the bit-parallel simulation kernels.
//
// All hot kernels (good-value sweep, event-driven fault grading, forced
// replay resimulation, two-plane ternary sweep) are written once as plain
// uint64_t loops over NW words per net (kernels_impl.hpp) and compiled
// twice: once at baseline ISA (scalar, the portable path and the parity
// reference) and once with -mavx512f/bw/dq/vl. The compiler
// auto-vectorises the NW-word loops into 512-bit operations; the *logical*
// lane count of every pass is fixed by the algorithms (kMaxLaneWords
// super-batches everywhere), so results are bit-identical across backends
// by construction — only the wall clock moves. The CPU alone picks the
// backend, once per process: AVX-512 when it is compiled in and CPUID
// reports every extension its TU is compiled for, else scalar. The parity
// test calls both kernel tables directly (kernels.hpp).
#pragma once

#include <cstdint>

namespace tpi {

enum class SimdBackend { kScalar = 0, kAvx512 = 1 };

/// Widest super-batch width in 64-bit words: every wide pass grades
/// kMaxLaneWords * 64 = 512 patterns/lanes per net visit, independent of
/// the backend executing it (that is what keeps results bit-identical).
inline constexpr int kMaxLaneWords = 8;

/// Lane words of the next wide pass over `remaining` 64-pattern batches
/// (or rounds): the largest power of two <= min(kMaxLaneWords, remaining),
/// 1 when less than two are left. The width follows from the work left
/// alone, never from CPU capability, so every backend groups a run's
/// patterns the same way.
constexpr int super_batch_words(std::int64_t remaining) {
  int nw = 1;
  while (nw * 2 <= kMaxLaneWords && nw * 2 <= remaining) nw *= 2;
  return nw;
}

/// True when `b` was compiled in AND the running CPU supports it: AVX-512
/// needs the F, BW, DQ and VL extensions. kScalar is always available.
bool simd_backend_available(SimdBackend b);

/// The backend the kernels dispatch to, resolved once per process:
/// AVX-512 when available, else scalar.
SimdBackend simd_backend();

/// Physical datapath width of simd_backend() in bits (64 or 512);
/// exported as the "rt.sim.lane_width" gauge.
int simd_lane_bits();

const char* simd_backend_name(SimdBackend b);

}  // namespace tpi
