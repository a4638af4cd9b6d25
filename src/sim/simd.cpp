#include "sim/simd.hpp"

#include <atomic>
#include <mutex>

#include "sim/kernels.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace tpi {
namespace {

// AVX-512 when it is compiled in and the CPU supports it, else scalar.
SimdBackend auto_backend() {
  return simd_backend_available(SimdBackend::kAvx512) ? SimdBackend::kAvx512
                                                       : SimdBackend::kScalar;
}

// Resolved backend cache: -1 = unresolved. set_simd_backend invalidates.
std::atomic<int> g_resolved{-1};
// The explicit override, guarded by g_mutex; g_resolved is the fast path.
std::mutex g_mutex;
std::optional<SimdBackend> g_override;

SimdBackend resolve_locked() {
  std::optional<SimdBackend> want = g_override;
  const char* origin = "override";
  if (!want) {
    if (const std::optional<std::string> v = env_string("TPI_SIMD")) {
      if (*v == "auto") {
        // fall through to auto
      } else if (const std::optional<SimdBackend> b = simd_backend_from_name(*v)) {
        want = *b;
        origin = "TPI_SIMD";
      } else {
        log_warn() << "simd: invalid TPI_SIMD=\"" << *v
                   << "\" (want auto|scalar|avx512); using auto";
      }
    }
  }
  if (want && !simd_backend_available(*want)) {
    const SimdBackend fb = auto_backend();
    log_warn() << "simd: requested backend \"" << simd_backend_name(*want) << "\" (" << origin
               << ") is unavailable on this host/build; falling back to \""
               << simd_backend_name(fb) << "\"";
    want = fb;
  }
  return want ? *want : auto_backend();
}

}  // namespace

bool simd_backend_available(SimdBackend b) {
  if (b == SimdBackend::kScalar) return true;
#if defined(TPI_HAVE_KERNELS_AVX512) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

SimdBackend simd_backend() {
  const int cached = g_resolved.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<SimdBackend>(cached);
  std::lock_guard<std::mutex> lock(g_mutex);
  const int again = g_resolved.load(std::memory_order_relaxed);
  if (again >= 0) return static_cast<SimdBackend>(again);
  const SimdBackend b = resolve_locked();
  g_resolved.store(static_cast<int>(b), std::memory_order_release);
  return b;
}

void set_simd_backend(std::optional<SimdBackend> backend) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_override = backend;
  g_resolved.store(-1, std::memory_order_release);
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

std::optional<SimdBackend> simd_backend_from_name(std::string_view name) {
  if (name == "scalar") return SimdBackend::kScalar;
  if (name == "avx512") return SimdBackend::kAvx512;
  return std::nullopt;
}

const SimKernels& sim_kernels(SimdBackend b) {
#ifdef TPI_HAVE_KERNELS_AVX512
  if (b == SimdBackend::kAvx512) return sim_kernels_avx512();
#else
  (void)b;
#endif
  return sim_kernels_scalar();
}

const SimKernels& sim_kernels() { return sim_kernels(simd_backend()); }

}  // namespace tpi
