#pragma once

// The process-wide SIMD level (DESIGN.md §16): which instruction-set tier
// the dispatching kernels may use. Shared by the ops/ kernels (through
// ops/simd_dispatch.h, which re-exports these names into ops::kernels) and
// by util/crc32.h, so one SetSimdLevel call moves every kernel in the
// process and util/ needs nothing from ops/.
//
// One binary carries every variant the compiler can emit for the target
// architecture (scalar always; AVX2 + AVX-512F on x86-64; NEON on
// aarch64), each behind a target attribute or target pragma region so the
// rest of the translation unit stays baseline-ISA portable. The host's best level
// is resolved once (__builtin_cpu_supports on x86; compile-time on
// aarch64, where NEON is mandatory) and cached; after that a level check
// is one relaxed atomic load.
//
// The active level is overridable at runtime (SetSimdLevel) so benches
// can emit scalar-twin rows and the differential tests can drive every
// compiled variant against the scalar oracle in one process. Overrides
// are clamped to what the host actually supports — requesting kAvx512 on
// an AVX2-only machine yields kAvx2.
//
// -DSLICK_SIMD_FORCE_SCALAR (CMake: SLICK_SIMD_FORCE_SCALAR) compiles the
// wide variants out entirely, which is the CI matrix leg that proves the
// scalar fallback is complete on its own.

#include <atomic>
#include <cstdint>

#include "util/annotations.h"

#if defined(SLICK_SIMD) && !defined(SLICK_SIMD_FORCE_SCALAR) && \
    defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SLICK_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(SLICK_SIMD) && !defined(SLICK_SIMD_FORCE_SCALAR) && \
    defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define SLICK_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace slick::util {

/// Kernel variants in ascending capability order. The numeric order only
/// matters within one architecture (kNeon is never reachable on x86 and
/// vice versa); dispatchers test `level >= kX` for the variants they
/// compiled.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kNeon: return "neon";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

/// Best level the running host supports among the compiled variants.
inline SimdLevel DetectSimdLevel() {
#if defined(SLICK_SIMD_X86)
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
#elif defined(SLICK_SIMD_NEON)
  return SimdLevel::kNeon;  // mandatory on aarch64
#else
  return SimdLevel::kScalar;
#endif
}

namespace detail {
SLICK_REALTIME_ALLOW(
    "one-time dispatch init: the function-local static resolves CPUID on "
    "first use only; every later call is a guard check plus a relaxed "
    "atomic load")
inline std::atomic<SimdLevel>& ActiveSimdLevelSlot() {
  static std::atomic<SimdLevel> level{DetectSimdLevel()};
  return level;
}
}  // namespace detail

/// Level the dispatching kernels currently use. Defaults to
/// DetectSimdLevel(); tests and benches may lower it via SetSimdLevel.
SLICK_REALTIME inline SimdLevel ActiveSimdLevel() {
  return detail::ActiveSimdLevelSlot().load(std::memory_order_relaxed);
}

/// Overrides the dispatch level (clamped to the host's detected best, so
/// an unsupported request degrades instead of faulting) and returns the
/// previous level. Test/bench hook — e.g. force kScalar, run the scalar
/// twin, restore.
inline SimdLevel SetSimdLevel(SimdLevel level) {
  const SimdLevel best = DetectSimdLevel();
  if (static_cast<uint8_t>(level) > static_cast<uint8_t>(best)) level = best;
  return detail::ActiveSimdLevelSlot().exchange(level,
                                                std::memory_order_relaxed);
}

}  // namespace slick::util
