#pragma once

// Contiguous fold kernels for the batch ingestion path (DESIGN.md §11).
//
// Each kernel computes an identity-seeded fold of a contiguous value array
// under one ⊕, written as a restrict-qualified loop the compiler can
// auto-vectorize; behind SLICK_SIMD, AVX2 + AVX-512F variants (x86-64) or
// a NEON variant (aarch64) are also compiled and selected through the
// cached runtime dispatch in ops/simd_dispatch.h, so one binary runs
// everywhere and uses the widest path the host has.
//
// Exactness contract: the integer kernels (FoldAdd/FoldMax/FoldMin over
// int64) and the min/max kernels are bit-identical to the sequential
// combine fold regardless of dispatch — addition on int64 wraps
// associatively and min/max are idempotent-associative. The
// floating-point *sum* kernels reassociate (lane-parallel partial sums),
// so their results are ULP-bounded relative to the sequential fold, not
// bit-equal; callers needing exact oracle comparisons use the integer ops
// (kernels_test.cc pins both guarantees).
//
// BulkKernel<Op> (declared in ops/traits.h) maps ops onto kernels; the
// generic FoldValues<Op> falls back to a plain combine loop for everything
// without a registered kernel, so counting wrappers and holistic ops keep
// their exact per-combine semantics. The structural scan kernels (flip,
// staircase, multi-query walk) live in ops/scan_kernels.h.

#include <cstddef>
#include <cstdint>

#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/simd_dispatch.h"
#include "ops/traits.h"
#include "util/annotations.h"

namespace slick::ops {
namespace kernels {

// ------------------------------------------------------------------
// Scalar kernels. SLICK_RESTRICT promises the input does not alias any
// store the caller makes, which is what lets -O2 unroll and vectorize
// these loops even without the explicit wide variants below.
// ------------------------------------------------------------------

SLICK_REALTIME inline int64_t FoldAddScalar(const int64_t* SLICK_RESTRICT v,
                                            std::size_t n) {
  int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

SLICK_REALTIME inline double FoldAddScalar(const double* SLICK_RESTRICT v,
                                           std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += v[i];
  return acc;
}

SLICK_REALTIME inline int64_t FoldMaxScalar(const int64_t* SLICK_RESTRICT v,
                                            std::size_t n) {
  int64_t acc = MaxInt::identity();
  for (std::size_t i = 0; i < n; ++i) acc = acc < v[i] ? v[i] : acc;
  return acc;
}

// The comparison shape matches Max::combine(acc, v) exactly, including its
// NaN behaviour (a NaN element never replaces the accumulator).
SLICK_REALTIME inline double FoldMaxScalar(const double* SLICK_RESTRICT v,
                                           std::size_t n) {
  double acc = Max::identity();
  for (std::size_t i = 0; i < n; ++i) acc = acc < v[i] ? v[i] : acc;
  return acc;
}

SLICK_REALTIME inline double FoldMinScalar(const double* SLICK_RESTRICT v,
                                           std::size_t n) {
  double acc = Min::identity();
  for (std::size_t i = 0; i < n; ++i) acc = v[i] < acc ? v[i] : acc;
  return acc;
}

SLICK_REALTIME inline int64_t FoldMinScalar(const int64_t* SLICK_RESTRICT v,
                                            std::size_t n) {
  int64_t acc = MinInt::identity();
  for (std::size_t i = 0; i < n; ++i) acc = v[i] < acc ? v[i] : acc;
  return acc;
}

#if defined(SLICK_SIMD_X86)

// ------------------------------------------------------------------
// AVX2 kernels, compiled with a per-function target attribute so the rest
// of the binary keeps the baseline ISA.
// ------------------------------------------------------------------

__attribute__((target("avx2"))) inline double FoldAddAvx2(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double r = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) r += v[i];
  return r;
}

__attribute__((target("avx2"))) inline int64_t FoldAddAvx2(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t r = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) r += v[i];
  return r;
}

// maxpd/minpd return the SECOND operand when the compare fails (including
// on NaN), so ordering the element first and the accumulator second makes
// the lanes behave exactly like `acc = acc < v ? v : acc` — a NaN element
// keeps the accumulator, a NaN accumulator stays NaN, matching the scalar
// kernel bit for bit.
__attribute__((target("avx2"))) inline double FoldMaxAvx2(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m256d acc = _mm256_set1_pd(Max::identity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(_mm256_loadu_pd(v + i), acc);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double r = Max::identity();
  for (int k = 0; k < 4; ++k) r = r < lanes[k] ? lanes[k] : r;
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

__attribute__((target("avx2"))) inline double FoldMinAvx2(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m256d acc = _mm256_set1_pd(Min::identity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_min_pd(_mm256_loadu_pd(v + i), acc);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double r = Min::identity();
  for (int k = 0; k < 4; ++k) r = lanes[k] < r ? lanes[k] : r;
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

// AVX2 has no packed 64-bit max/min (that is AVX-512), so compare + blend.
__attribute__((target("avx2"))) inline int64_t FoldMaxAvx2(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m256i acc = _mm256_set1_epi64x(MaxInt::identity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_blendv_epi8(acc, x, _mm256_cmpgt_epi64(x, acc));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t r = MaxInt::identity();
  for (int k = 0; k < 4; ++k) r = r < lanes[k] ? lanes[k] : r;
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

__attribute__((target("avx2"))) inline int64_t FoldMinAvx2(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m256i acc = _mm256_set1_epi64x(MinInt::identity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_blendv_epi8(acc, x, _mm256_cmpgt_epi64(acc, x));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t r = MinInt::identity();
  for (int k = 0; k < 4; ++k) r = lanes[k] < r ? lanes[k] : r;
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

// ------------------------------------------------------------------
// AVX-512F kernels: 8 lanes and native 64-bit integer min/max. GCC's
// _mm512_* intrinsics built on _mm512_undefined_*() trip a
// -Wmaybe-uninitialized false positive when inlined (GCC PR105593), so
// the section scopes a suppression.
// ------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

__attribute__((target("avx512f"))) inline double FoldAddAvx512(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_pd(acc, _mm512_loadu_pd(v + i));
  }
  double r = _mm512_reduce_add_pd(acc);
  for (; i < n; ++i) r += v[i];
  return r;
}

__attribute__((target("avx512f"))) inline int64_t FoldAddAvx512(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_loadu_si512(v + i));
  }
  int64_t r = _mm512_reduce_add_epi64(acc);
  for (; i < n; ++i) r += v[i];
  return r;
}

__attribute__((target("avx512f"))) inline double FoldMaxAvx512(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m512d acc = _mm512_set1_pd(Max::identity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_max_pd(_mm512_loadu_pd(v + i), acc);
  }
  double lanes[8];
  _mm512_storeu_pd(lanes, acc);
  double r = Max::identity();
  for (int k = 0; k < 8; ++k) r = r < lanes[k] ? lanes[k] : r;
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

__attribute__((target("avx512f"))) inline double FoldMinAvx512(
    const double* SLICK_RESTRICT v, std::size_t n) {
  __m512d acc = _mm512_set1_pd(Min::identity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_min_pd(_mm512_loadu_pd(v + i), acc);
  }
  double lanes[8];
  _mm512_storeu_pd(lanes, acc);
  double r = Min::identity();
  for (int k = 0; k < 8; ++k) r = lanes[k] < r ? lanes[k] : r;
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

__attribute__((target("avx512f"))) inline int64_t FoldMaxAvx512(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m512i acc = _mm512_set1_epi64(MaxInt::identity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_max_epi64(acc, _mm512_loadu_si512(v + i));
  }
  int64_t r = _mm512_reduce_max_epi64(acc);
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

__attribute__((target("avx512f"))) inline int64_t FoldMinAvx512(
    const int64_t* SLICK_RESTRICT v, std::size_t n) {
  __m512i acc = _mm512_set1_epi64(MinInt::identity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_min_epi64(acc, _mm512_loadu_si512(v + i));
  }
  int64_t r = _mm512_reduce_min_epi64(acc);
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SLICK_SIMD_X86

#if defined(SLICK_SIMD_NEON)

// ------------------------------------------------------------------
// NEON kernels (aarch64, 2 × 64-bit lanes). No vmaxq_s64/vminq_s64, and
// vmaxq_f64/vminq_f64 have the wrong NaN behaviour for our combine
// shape, so min/max are compare + select, same semantics as the scalar
// comparison.
// ------------------------------------------------------------------

SLICK_REALTIME inline double FoldAddNeon(const double* SLICK_RESTRICT v,
                                         std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_f64(acc, vld1q_f64(v + i));
  double r = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) r += v[i];
  return r;
}

SLICK_REALTIME inline int64_t FoldAddNeon(const int64_t* SLICK_RESTRICT v,
                                          std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_s64(acc, vld1q_s64(v + i));
  int64_t r = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) r += v[i];
  return r;
}

SLICK_REALTIME inline double FoldMaxNeon(const double* SLICK_RESTRICT v,
                                         std::size_t n) {
  float64x2_t acc = vdupq_n_f64(Max::identity());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(v + i);
    acc = vbslq_f64(vcltq_f64(acc, x), x, acc);
  }
  double r = Max::identity();
  for (int k = 0; k < 2; ++k) {
    const double lane = k == 0 ? vgetq_lane_f64(acc, 0) : vgetq_lane_f64(acc, 1);
    r = r < lane ? lane : r;
  }
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

SLICK_REALTIME inline double FoldMinNeon(const double* SLICK_RESTRICT v,
                                         std::size_t n) {
  float64x2_t acc = vdupq_n_f64(Min::identity());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(v + i);
    acc = vbslq_f64(vcltq_f64(x, acc), x, acc);
  }
  double r = Min::identity();
  for (int k = 0; k < 2; ++k) {
    const double lane = k == 0 ? vgetq_lane_f64(acc, 0) : vgetq_lane_f64(acc, 1);
    r = lane < r ? lane : r;
  }
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

SLICK_REALTIME inline int64_t FoldMaxNeon(const int64_t* SLICK_RESTRICT v,
                                          std::size_t n) {
  int64x2_t acc = vdupq_n_s64(MaxInt::identity());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t x = vld1q_s64(v + i);
    acc = vbslq_s64(vcltq_s64(acc, x), x, acc);
  }
  int64_t r = MaxInt::identity();
  for (int k = 0; k < 2; ++k) {
    const int64_t lane = k == 0 ? vgetq_lane_s64(acc, 0) : vgetq_lane_s64(acc, 1);
    r = r < lane ? lane : r;
  }
  for (; i < n; ++i) r = r < v[i] ? v[i] : r;
  return r;
}

SLICK_REALTIME inline int64_t FoldMinNeon(const int64_t* SLICK_RESTRICT v,
                                          std::size_t n) {
  int64x2_t acc = vdupq_n_s64(MinInt::identity());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int64x2_t x = vld1q_s64(v + i);
    acc = vbslq_s64(vcltq_s64(x, acc), x, acc);
  }
  int64_t r = MinInt::identity();
  for (int k = 0; k < 2; ++k) {
    const int64_t lane = k == 0 ? vgetq_lane_s64(acc, 0) : vgetq_lane_s64(acc, 1);
    r = lane < r ? lane : r;
  }
  for (; i < n; ++i) r = v[i] < r ? v[i] : r;
  return r;
}

#endif  // SLICK_SIMD_NEON

// ------------------------------------------------------------------
// Public dispatching kernels: the widest compiled variant the active
// level (ops/simd_dispatch.h) allows when the batch is long enough to
// amortize the reduction; scalar otherwise.
// ------------------------------------------------------------------

SLICK_REALTIME inline double FoldAdd(const double* SLICK_RESTRICT v,
                                     std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldAdd, (v, n))
}

SLICK_REALTIME inline int64_t FoldAdd(const int64_t* SLICK_RESTRICT v,
                                      std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldAdd, (v, n))
}

SLICK_REALTIME inline double FoldMax(const double* SLICK_RESTRICT v,
                                     std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldMax, (v, n))
}

SLICK_REALTIME inline int64_t FoldMax(const int64_t* SLICK_RESTRICT v,
                                      std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldMax, (v, n))
}

SLICK_REALTIME inline double FoldMin(const double* SLICK_RESTRICT v,
                                     std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldMin, (v, n))
}

SLICK_REALTIME inline int64_t FoldMin(const int64_t* SLICK_RESTRICT v,
                                      std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(FoldMin, (v, n))
}


}  // namespace kernels

// ------------------------------------------------------------------
// Kernel registrations. An op qualifies when its ⊕ over value_type is one
// of the fold shapes above AND an identity-seeded fold equals the kernel's
// result (true for these: + seeded with 0, min/max seeded with ±∞/INT_MIN).
// ------------------------------------------------------------------

template <>
struct BulkKernel<Sum> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<SumInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<SumOfSquares> {
  // value_type carries already-lifted squares, so the fold is a plain add.
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<Count> {
  // Partials are lifted 1s (or merged counts); still an integer sum.
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldAdd(v, n);
  }
};

template <>
struct BulkKernel<Max> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldMax(v, n);
  }
};

template <>
struct BulkKernel<MaxInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldMax(v, n);
  }
};

template <>
struct BulkKernel<Min> {
  static double Fold(const double* v, std::size_t n) {
    return kernels::FoldMin(v, n);
  }
};

template <>
struct BulkKernel<MinInt> {
  static int64_t Fold(const int64_t* v, std::size_t n) {
    return kernels::FoldMin(v, n);
  }
};

/// Identity-seeded fold of `n` contiguous partials under Op: the op's
/// registered vector kernel when one exists, a plain combine loop
/// otherwise. n == 0 yields Op::identity(). This is the single entry point
/// the aggregators' batch fast paths fold through.
template <AggregateOp Op>
typename Op::value_type FoldValues(const typename Op::value_type* v,
                                   std::size_t n) {
  if constexpr (HasBulkKernel<Op>) {
    return BulkKernel<Op>::Fold(v, n);
  } else {
    typename Op::value_type acc = Op::identity();
    for (std::size_t i = 0; i < n; ++i) acc = Op::combine(acc, v[i]);
    return acc;
  }
}

}  // namespace slick::ops
