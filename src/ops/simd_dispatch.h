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
