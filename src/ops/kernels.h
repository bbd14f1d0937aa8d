#pragma once

// Contiguous fold kernels for the batch ingestion path (DESIGN.md §11).
//
// Each kernel computes an identity-seeded fold of a contiguous value array
// under one ⊕. The scalar kernels below are restrict-qualified loops and
// the fallback and test oracle. Behind SLICK_SIMD the wide variants are
// the one Fold body of ops/simd_body.h, instantiated for AVX2 and AVX-512F
// (x86-64) or NEON (aarch64) by ops/simd_dispatch.h and picked by its
// cached runtime dispatch, so one binary uses the widest path the host
// has.
//
// Exactness contract: the integer kernels (FoldAdd/FoldMax/FoldMin over
// int64) are bit-identical to the sequential combine fold at every
// level: int64 addition wraps associatively. The double min/max folds
// return the same value too, including under NaN (a NaN element never
// replaces an accumulator); only a tie between +0.0 and -0.0 may resolve
// to the other zero, because the lanes interleave positions. The double
// *sum* reassociates into kLanes partial sums, reduced by the same tree
// at every width (lane j += lane j + k for k = kLanes/2, ..., 1), then
// adds the tail in order, so it is ULP-bounded against the sequential
// fold, not bit-equal. kernels_test.cc pins these guarantees, also on
// ±Inf, ±0.0, denormal and NaN payloads.
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
// these loops even without the wide variants.
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
