#pragma once

// Runtime SIMD dispatch shared by ops/kernels.h (contiguous folds) and
// ops/scan_kernels.h (structural scan kernels) — DESIGN.md §16.
//
// The level itself (SimdLevel, DetectSimdLevel, ActiveSimdLevel,
// SetSimdLevel and the SLICK_SIMD_X86 / SLICK_SIMD_NEON compile gates)
// lives in util/simd_level.h, shared with util/crc32.h; it is re-exported
// here so the kernels and their callers keep spelling it ops::kernels::.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/simd_level.h"

#if defined(__GNUC__) || defined(__clang__)
#define SLICK_RESTRICT __restrict__
#else
#define SLICK_RESTRICT
#endif

namespace slick::ops::kernels {

using util::ActiveSimdLevel;
using util::DetectSimdLevel;
using util::SetSimdLevel;
using util::SimdLevel;
using util::SimdLevelName;

/// Batches below this length are not worth the dispatch + horizontal
/// reduction (folds) or the carry plumbing (scans); the scalar loop wins.
inline constexpr std::size_t kSimdThreshold = 16;

}  // namespace slick::ops::kernels

// ------------------------------------------------------------------
// Per-target instantiation of ops/simd_body.h: each block declares its
// lane traits (kLanes, the compare-to-bitmask LessBits and, on AVX-512,
// a native Align: the only ISA code the kernels have) and then
// re-includes the one kernel body inside the target's ISA region. This is
// the "foreach target" technique of Highway, with nothing added but this
// file. (-mavx512f implies AVX2, and any host passing the avx512f CPUID
// test has AVX2.) Under clang the region is an attribute push, so
// clang-based tools see the same targets.
// ------------------------------------------------------------------

#if defined(SLICK_SIMD_X86)

#define SLICK_SIMD_PRAGMA(x) _Pragma(#x)
#if defined(__clang__)
#define SLICK_SIMD_TARGET_PUSH(ISA)                                         \
  SLICK_SIMD_PRAGMA(                                                        \
      clang attribute push(__attribute__((target(ISA))), apply_to = function))
#define SLICK_SIMD_TARGET_POP() SLICK_SIMD_PRAGMA(clang attribute pop)
#else
#define SLICK_SIMD_TARGET_PUSH(ISA) \
  SLICK_SIMD_PRAGMA(GCC push_options) SLICK_SIMD_PRAGMA(GCC target(ISA))
#define SLICK_SIMD_TARGET_POP() SLICK_SIMD_PRAGMA(GCC pop_options)
#endif

SLICK_SIMD_TARGET_PUSH("avx2")
namespace slick::ops::kernels::avx2 {
inline constexpr std::size_t kLanes = 4;
template <typename V>
SLICK_REALTIME inline unsigned LessBits(V a, V b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(reinterpret_cast<__m256d>(a < b)));
}
}  // namespace slick::ops::kernels::avx2
#define SLICK_SIMD_TARGET avx2
#include "ops/simd_body.h"
#undef SLICK_SIMD_TARGET
SLICK_SIMD_TARGET_POP()

SLICK_SIMD_TARGET_PUSH("avx512f")
namespace slick::ops::kernels::avx512 {
inline constexpr std::size_t kLanes = 8;
template <typename V>
SLICK_REALTIME inline unsigned LessBits(V a, V b) {
  using T = std::remove_cvref_t<decltype(a[0])>;
  const auto ia = reinterpret_cast<__m512i>(a);
  const auto ib = reinterpret_cast<__m512i>(b);
  if constexpr (std::is_floating_point_v<T>) {
    return _mm512_cmp_pd_mask(reinterpret_cast<__m512d>(a),
                              reinterpret_cast<__m512d>(b), _CMP_LT_OQ);
  } else {
    return _mm512_cmplt_epi64_mask(ia, ib);
  }
}
// valignq. GCC lowers a two-input __builtin_shufflevector to vpermt2q,
// which overwrites an input and so costs a register copy per lane shift
// (15% on the int64 prefix scan here). The all-lanes mask form avoids
// the unmasked intrinsic's undefined pass-through, which GCC 12 reports
// as uninitialized when inlined (GCC PR105593).
template <std::size_t S, typename V>
SLICK_REALTIME inline V Align(V hi, V lo) {
  const auto h = reinterpret_cast<__m512i>(hi);
  return reinterpret_cast<V>(_mm512_mask_alignr_epi64(
      h, 0xFF, h, reinterpret_cast<__m512i>(lo), S));
}
}  // namespace slick::ops::kernels::avx512
#define SLICK_SIMD_TARGET avx512
#define SLICK_SIMD_NATIVE_ALIGN 1
#include "ops/simd_body.h"
#undef SLICK_SIMD_NATIVE_ALIGN
#undef SLICK_SIMD_TARGET
SLICK_SIMD_TARGET_POP()

#undef SLICK_SIMD_TARGET_PUSH
#undef SLICK_SIMD_TARGET_POP
#undef SLICK_SIMD_PRAGMA

#endif  // SLICK_SIMD_X86

#if defined(SLICK_SIMD_NEON)

// NEON is baseline on aarch64, so this block needs no target region.
namespace slick::ops::kernels::neon {
inline constexpr std::size_t kLanes = 2;
template <typename V>
SLICK_REALTIME inline unsigned LessBits(V a, V b) {
  const auto m = a < b;
  return static_cast<unsigned>(m[0] & 1) |
         static_cast<unsigned>(m[1] & 1) << 1;
}
}  // namespace slick::ops::kernels::neon
#define SLICK_SIMD_TARGET neon
#include "ops/simd_body.h"
#undef SLICK_SIMD_TARGET

#endif  // SLICK_SIMD_NEON

/// Body of every dispatching kernel NAME in ops/kernels.h and
/// ops/scan_kernels.h: the widest compiled avx512::NAME / avx2::NAME /
/// neon::NAME instantiation the active level allows once the input length
/// `n` reaches kSimdThreshold, NAME##Scalar otherwise. ARGS is the
/// parenthesized argument list forwarded to the chosen variant.
#if defined(SLICK_SIMD_X86)
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS)                                \
  if (n >= kSimdThreshold) {                                                \
    const SimdLevel level = ActiveSimdLevel();                              \
    if (level >= SimdLevel::kAvx512) return avx512::NAME ARGS;              \
    if (level >= SimdLevel::kAvx2) return avx2::NAME ARGS;                  \
  }                                                                         \
  return NAME##Scalar ARGS;
#elif defined(SLICK_SIMD_NEON)
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS)                                \
  if (n >= kSimdThreshold && ActiveSimdLevel() >= SimdLevel::kNeon) {       \
    return neon::NAME ARGS;                                                 \
  }                                                                         \
  return NAME##Scalar ARGS;
#else
#define SLICK_SIMD_DISPATCH_BODY(NAME, ARGS) return NAME##Scalar ARGS;
#endif
