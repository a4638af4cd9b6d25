// AVX-512 kernel backend: the same word loops as the scalar TU, compiled
// with -mavx512{f,bw,dq,vl} so the 8-word case vectorises to one 512-bit
// op per net visit. Built only when the compiler accepts the flags;
// selected at runtime only when the CPU reports all four (see simd.cpp).
#define TPI_KERNELS_NS simd_impl_avx512
#include "sim/kernels_impl.hpp"

namespace tpi {

const SimKernels& sim_kernels_avx512() { return simd_impl_avx512::kernels(); }

}  // namespace tpi
