// Scalar (64-bit word) kernel backend: the portable baseline, compiled
// with the project's default flags. Always present.
#define TPI_KERNELS_NS simd_impl_scalar
#include "sim/kernels_impl.hpp"

namespace tpi {

const SimKernels& sim_kernels_scalar() { return simd_impl_scalar::kernels(); }

}  // namespace tpi
