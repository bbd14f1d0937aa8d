#pragma once

// Runtime SIMD dispatch shared by ops/kernels.h (contiguous folds) and
// ops/scan_kernels.h (structural scan kernels) — DESIGN.md §16.
//
// One binary carries every variant the compiler can emit for the target
// architecture (scalar always; AVX2 + AVX-512F on x86-64; NEON on
// aarch64), each behind a per-function target attribute so the rest of
// the translation unit stays baseline-ISA portable. The host's best level
// is resolved once (__builtin_cpu_supports on x86; compile-time on
// aarch64, where NEON is mandatory) and cached; after that a dispatch is
// one relaxed atomic load and two compares.
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
#include <cstddef>
#include <cstdint>

#include "util/annotations.h"

#if defined(__GNUC__) || defined(__clang__)
#define SLICK_RESTRICT __restrict__
#else
#define SLICK_RESTRICT
#endif

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

namespace slick::ops::kernels {

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

/// Batches below this length are not worth the dispatch + horizontal
/// reduction (folds) or the carry plumbing (scans); the scalar loop wins.
inline constexpr std::size_t kSimdThreshold = 16;

}  // namespace slick::ops::kernels

/// Body of every dispatching kernel NAME in ops/kernels.h and
/// ops/scan_kernels.h: the widest compiled NAME##Avx512 / NAME##Avx2 /
/// NAME##Neon variant the active level allows once the input length `n`
/// reaches kSimdThreshold, NAME##Scalar otherwise. ARGS is the
/// parenthesized argument list forwarded to the chosen variant.
#if defined(SLICK_SIMD_X86)
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS)                                \
  if (n >= kSimdThreshold) {                                                \
    const SimdLevel level = ActiveSimdLevel();                              \
    if (level >= SimdLevel::kAvx512) return NAME##Avx512 ARGS;              \
    if (level >= SimdLevel::kAvx2) return NAME##Avx2 ARGS;                  \
  }                                                                         \
  return NAME##Scalar ARGS;
#elif defined(SLICK_SIMD_NEON)
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS)                                \
  if (n >= kSimdThreshold && ActiveSimdLevel() >= SimdLevel::kNeon) {       \
    return NAME##Neon ARGS;                                                 \
  }                                                                         \
  return NAME##Scalar ARGS;
#else
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS) return NAME##Scalar ARGS;
#endif
