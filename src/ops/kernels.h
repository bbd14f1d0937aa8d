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
// Exactness contract: the int64 FoldAdd is bit-identical to the
// sequential combine fold at every level: int64 addition wraps
// associatively. The double FoldAdd reassociates into kLanes partial
// sums, reduced by the same tree at every width (lane j += lane j + k for
// k = kLanes/2, ..., 1), then adds the tail in order, so it is
// ULP-bounded against the sequential fold, not bit-equal. kernels_test.cc
// pins these guarantees, also on ±Inf, ±0.0, denormal and NaN payloads.
//
// BulkKernel<Op> (declared in ops/traits.h) maps ops onto kernels; the
// generic FoldValues<Op> falls back to a plain combine loop for everything
// without a registered kernel, so counting wrappers and holistic ops keep
// their exact per-combine semantics. The structural scan kernels (flip,
// staircase, multi-query walk) live in ops/scan_kernels.h.

#include <cstddef>
#include <cstdint>

#include "ops/arith.h"
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

}  // namespace kernels

// ------------------------------------------------------------------
// Kernel registrations. An op qualifies when its ⊕ over value_type is the
// add fold above AND an identity-seeded fold equals the kernel's result
// (true for these: + seeded with 0). Max/Min have no bulk fold: nothing
// folds them in bulk, so FoldValues takes the generic loop for them.
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
