#include "sim/simd.hpp"

#include "sim/kernels.hpp"

namespace tpi {

bool simd_backend_available(SimdBackend b) {
  if (b == SimdBackend::kScalar) return true;
#if defined(TPI_HAVE_KERNELS_AVX512) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

SimdBackend simd_backend() {
  static const SimdBackend backend = simd_backend_available(SimdBackend::kAvx512)
                                         ? SimdBackend::kAvx512
                                         : SimdBackend::kScalar;
  return backend;
}

int simd_lane_bits() { return simd_backend() == SimdBackend::kAvx512 ? 512 : 64; }

const char* simd_backend_name(SimdBackend b) {
  switch (b) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx512:
      return "avx512";
  }
  return "?";
}

const SimKernels& sim_kernels() {
#ifdef TPI_HAVE_KERNELS_AVX512
  static const SimKernels& kernels = simd_backend() == SimdBackend::kAvx512
                                         ? sim_kernels_avx512()
                                         : sim_kernels_scalar();
#else
  static const SimKernels& kernels = sim_kernels_scalar();
#endif
  return kernels;
}

}  // namespace tpi
