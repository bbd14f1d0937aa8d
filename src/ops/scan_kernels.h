#pragma once

// Structural scan kernels (DESIGN.md §16): the SIMD layer behind the
// TwoStacks flip, SlickDeque (Non-Inv)'s staircase reduction, and the
// Range projection of shared-family answers.
//
//  * SuffixAdd/SuffixMax/SuffixMin — out[i] = v[i] ⊕ out[i+1], seeded
//    out[n-1] = v[n-1] ⊕ carry. This is the flip: it turns a region of
//    values into its suffix-aggregate array in one reverse pass, with a
//    carried lane prefix across blocks (and across a ring wrap, via the
//    carry argument). `out` may be disjoint from `v` or exactly equal to
//    it; partial overlap is not allowed.
//  * PrefixAdd/PrefixMax/PrefixMin — out[i] = out[i-1] ⊕ v[i], seeded
//    out[0] = carry ⊕ v[0]: the bulk-insert prefix-aggregate chain.
//  * MaxSurvivors/MinSurvivors — the staircase reduction: one reverse
//    pass that sets mask bit k iff v[k] strictly dominates the aggregate
//    of v[k+1..n) (i.e. survives the batch), and returns the whole-batch
//    aggregate. Callers must zero the mask words first.
//  * SubtractArrays — out[i] = a[i] - b[i], the Range = Max - Min
//    projection over a batch of due answers.
//
// Exactness contract (same shape as ops/kernels.h): integer scans and all
// min/max scans and survivor masks are bit-identical to the sequential
// combine recurrence at every dispatch level on NaN-free input (±Inf,
// ±0.0 and denormals included): blocked evaluation only regroups the
// chain, sequence order is preserved, and left-biased selection is
// associative. Floating-point *sum* scans reassociate (in-register
// log-step scan), so they are ULP-bounded, not bit-equal.
//
// NaN is outside that contract for the scans. Max/Min have registered
// kernels, so a NaN in a Max/Min stream does reach the wide scans, and
// there a NaN breaks the total order the blocked regrouping relies on: the
// wide scan outputs can differ from the scalar ones. ROADMAP item 2 owns
// the NaN policy that closes this. The survivor masks are inside it: every
// tier follows Absorbs under NaN (a wide block holding a NaN, or entered
// with a NaN carry, takes the scalar steps), so SlickDeque (Non-Inv)'s
// batch paths build the deque its per-tuple paths build.
//
// The scalar kernels below are the always-available fallback and the
// differential oracle (tests/kernels_test.cc drives every compiled level
// against them). Each wide kernel is written once, in ops/simd_body.h,
// and instantiated per ISA by ops/simd_dispatch.h, whose cached one-time
// level resolution picks among them.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/simd_dispatch.h"
#include "ops/traits.h"
#include "util/annotations.h"

namespace slick::ops {
namespace kernels {

// ------------------------------------------------------------------
// Scalar scans: the exact sequential recurrences, comparison shapes
// matching each op's combine() (including NaN behaviour and tie bias).
// ------------------------------------------------------------------

SLICK_REALTIME inline void SuffixAddScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = v[i] + carry;
    out[i] = carry;
  }
}

SLICK_REALTIME inline void SuffixAddScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = v[i] + carry;
    out[i] = carry;
  }
}

// combine(v, carry) = v < carry ? carry : v — Max::combine exactly.
SLICK_REALTIME inline void SuffixMaxScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = v[i] < carry ? carry : v[i];
    out[i] = carry;
  }
}

SLICK_REALTIME inline void SuffixMaxScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = v[i] < carry ? carry : v[i];
    out[i] = carry;
  }
}

// combine(v, carry) = carry < v ? carry : v — Min::combine exactly.
SLICK_REALTIME inline void SuffixMinScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = carry < v[i] ? carry : v[i];
    out[i] = carry;
  }
}

SLICK_REALTIME inline void SuffixMinScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = n; i-- > 0;) {
    carry = carry < v[i] ? carry : v[i];
    out[i] = carry;
  }
}

SLICK_REALTIME inline void PrefixAddScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = carry + v[i];
    out[i] = carry;
  }
}

SLICK_REALTIME inline void PrefixAddScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = carry + v[i];
    out[i] = carry;
  }
}

// combine(carry, v) = carry < v ? v : carry.
SLICK_REALTIME inline void PrefixMaxScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = carry < v[i] ? v[i] : carry;
    out[i] = carry;
  }
}

SLICK_REALTIME inline void PrefixMaxScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = carry < v[i] ? v[i] : carry;
    out[i] = carry;
  }
}

// combine(carry, v) = v < carry ? v : carry.
SLICK_REALTIME inline void PrefixMinScalar(const double* v, double* out,
                                           std::size_t n, double carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = v[i] < carry ? v[i] : carry;
    out[i] = carry;
  }
}

SLICK_REALTIME inline void PrefixMinScalar(const int64_t* v, int64_t* out,
                                           std::size_t n, int64_t carry) {
  for (std::size_t i = 0; i < n; ++i) {
    carry = v[i] < carry ? v[i] : carry;
    out[i] = carry;
  }
}

// ------------------------------------------------------------------
// Scalar staircase survivor masks. Bit k is set iff v[k] strictly
// dominates the aggregate of everything after it — !Absorbs(suffix, v[k])
// for the order-induced absorbs of Max/Min. The double forms keep the
// exact test and carry (!Absorbs(carry, v), carry = v ⊕ carry), so a NaN
// survives and restarts the carry exactly as the per-tuple pop loop
// treats it. One branch carries both: inside it v
// is not below the carry, so !Absorbs reduces to v != carry, and the carry
// chain stays a predicted branch instead of a maxsd latency per element.
// Mask words must arrive zeroed; the newest element (k = n-1) gets the
// identity as its suffix, so callers that must keep it unconditionally
// (SlickDeque) force its bit afterwards.
// ------------------------------------------------------------------

SLICK_REALTIME inline double MaxSurvivorsScalar(const double* v, std::size_t n,
                                                uint64_t* mask) {
  double carry = Max::identity();
  for (std::size_t i = n; i-- > 0;) {
    if (!(v[i] < carry)) {  // carry = v[i] < carry ? carry : v[i]
      mask[i >> 6] |= uint64_t{v[i] != carry} << (i & 63);
      carry = v[i];
    }
  }
  return carry;
}

SLICK_REALTIME inline int64_t MaxSurvivorsScalar(const int64_t* v,
                                                 std::size_t n,
                                                 uint64_t* mask) {
  int64_t carry = MaxInt::identity();
  for (std::size_t i = n; i-- > 0;) {
    if (carry < v[i]) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = carry < v[i] ? v[i] : carry;
  }
  return carry;
}

SLICK_REALTIME inline double MinSurvivorsScalar(const double* v, std::size_t n,
                                                uint64_t* mask) {
  double carry = Min::identity();
  for (std::size_t i = n; i-- > 0;) {
    if (!(carry < v[i])) {  // carry = carry < v[i] ? carry : v[i]
      mask[i >> 6] |= uint64_t{v[i] != carry} << (i & 63);
      carry = v[i];
    }
  }
  return carry;
}

SLICK_REALTIME inline int64_t MinSurvivorsScalar(const int64_t* v,
                                                 std::size_t n,
                                                 uint64_t* mask) {
  int64_t carry = MinInt::identity();
  for (std::size_t i = n; i-- > 0;) {
    if (v[i] < carry) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = v[i] < carry ? v[i] : carry;
  }
  return carry;
}

// ------------------------------------------------------------------
// Scalar projection helper.
// ------------------------------------------------------------------

SLICK_REALTIME inline void SubtractArraysScalar(
    const double* SLICK_RESTRICT a, const double* SLICK_RESTRICT b,
    double* SLICK_RESTRICT out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

// ------------------------------------------------------------------
// Dispatching kernels: the widest compiled variant the active level
// allows when the region is long enough to amortize the carry plumbing;
// scalar otherwise.
// ------------------------------------------------------------------

#define SLICK_SCAN_DISPATCH(NAME, TYPE)                                     \
  SLICK_REALTIME inline void NAME(const TYPE* v, TYPE* out, std::size_t n,  \
                                  TYPE carry) {                             \
    SLICK_SIMD_DISPATCH_BODY(NAME, (v, out, n, carry))                      \
  }

SLICK_SCAN_DISPATCH(SuffixAdd, double)
SLICK_SCAN_DISPATCH(SuffixAdd, int64_t)
SLICK_SCAN_DISPATCH(SuffixMax, double)
SLICK_SCAN_DISPATCH(SuffixMax, int64_t)
SLICK_SCAN_DISPATCH(SuffixMin, double)
SLICK_SCAN_DISPATCH(SuffixMin, int64_t)
SLICK_SCAN_DISPATCH(PrefixAdd, double)
SLICK_SCAN_DISPATCH(PrefixAdd, int64_t)
SLICK_SCAN_DISPATCH(PrefixMax, double)
SLICK_SCAN_DISPATCH(PrefixMax, int64_t)
SLICK_SCAN_DISPATCH(PrefixMin, double)
SLICK_SCAN_DISPATCH(PrefixMin, int64_t)

#define SLICK_SURVIVOR_DISPATCH(NAME, TYPE)                                 \
  SLICK_REALTIME inline TYPE NAME(const TYPE* v, std::size_t n,             \
                                  uint64_t* mask) {                         \
    SLICK_SIMD_DISPATCH_BODY(NAME, (v, n, mask))                            \
  }

SLICK_SURVIVOR_DISPATCH(MaxSurvivors, double)
SLICK_SURVIVOR_DISPATCH(MaxSurvivors, int64_t)
SLICK_SURVIVOR_DISPATCH(MinSurvivors, double)
SLICK_SURVIVOR_DISPATCH(MinSurvivors, int64_t)

SLICK_REALTIME inline void SubtractArrays(const double* SLICK_RESTRICT a,
                                          const double* SLICK_RESTRICT b,
                                          double* SLICK_RESTRICT out,
                                          std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(SubtractArrays, (a, b, out, n))
}

#undef SLICK_SCAN_DISPATCH
#undef SLICK_SURVIVOR_DISPATCH

}  // namespace kernels

// ------------------------------------------------------------------
// Kernel registrations (the ScanKernel/SurvivorKernel customization
// points declared in ops/traits.h). Same qualification rule as
// BulkKernel: the op's ⊕ must be one of the scan shapes above and an
// identity carry must be ⊕-neutral.
// ------------------------------------------------------------------

#define SLICK_REGISTER_SCAN_KERNEL(OP, TYPE, SUFFIX_FN, PREFIX_FN)          \
  template <>                                                               \
  struct ScanKernel<OP> {                                                   \
    static void Suffix(const TYPE* v, TYPE* out, std::size_t n,             \
                       TYPE carry) {                                        \
      kernels::SUFFIX_FN(v, out, n, carry);                                 \
    }                                                                       \
    static void Prefix(const TYPE* v, TYPE* out, std::size_t n,             \
                       TYPE carry) {                                        \
      kernels::PREFIX_FN(v, out, n, carry);                                 \
    }                                                                       \
  };

SLICK_REGISTER_SCAN_KERNEL(Sum, double, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(SumInt, int64_t, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(SumOfSquares, double, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(Count, int64_t, SuffixAdd, PrefixAdd)
SLICK_REGISTER_SCAN_KERNEL(Max, double, SuffixMax, PrefixMax)
SLICK_REGISTER_SCAN_KERNEL(MaxInt, int64_t, SuffixMax, PrefixMax)
SLICK_REGISTER_SCAN_KERNEL(Min, double, SuffixMin, PrefixMin)
SLICK_REGISTER_SCAN_KERNEL(MinInt, int64_t, SuffixMin, PrefixMin)

#undef SLICK_REGISTER_SCAN_KERNEL

#define SLICK_REGISTER_SURVIVOR_KERNEL(OP, TYPE, FN)                        \
  template <>                                                               \
  struct SurvivorKernel<OP> {                                               \
    static TYPE Mask(const TYPE* v, std::size_t n, uint64_t* mask) {        \
      return kernels::FN(v, n, mask);                                       \
    }                                                                       \
  };

SLICK_REGISTER_SURVIVOR_KERNEL(Max, double, MaxSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(MaxInt, int64_t, MaxSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(Min, double, MinSurvivors)
SLICK_REGISTER_SURVIVOR_KERNEL(MinInt, int64_t, MinSurvivors)

#undef SLICK_REGISTER_SURVIVOR_KERNEL

/// Suffix scan of `n` contiguous values under Op, seeded with `carry`:
/// out[i] = v[i] ⊕ out[i+1], out[n-1] = v[n-1] ⊕ carry. Uses the op's
/// registered scan kernel when one exists; the fallback is the exact
/// sequential recurrence (preserving per-combine order for
/// non-commutative ops). `out` may equal `v` exactly or be disjoint.
template <AggregateOp Op>
SLICK_REALTIME void SuffixScanValues(const typename Op::value_type* v,
                                     typename Op::value_type* out,
                                     std::size_t n,
                                     typename Op::value_type carry) {
  if constexpr (HasScanKernel<Op>) {
    ScanKernel<Op>::Suffix(v, out, n, std::move(carry));
  } else {
    for (std::size_t i = n; i-- > 0;) {
      carry = Op::combine(v[i], carry);
      out[i] = carry;
    }
  }
}

/// Prefix scan: out[i] = out[i-1] ⊕ v[i], out[0] = carry ⊕ v[0].
template <AggregateOp Op>
SLICK_REALTIME void PrefixScanValues(const typename Op::value_type* v,
                                     typename Op::value_type* out,
                                     std::size_t n,
                                     typename Op::value_type carry) {
  if constexpr (HasScanKernel<Op>) {
    ScanKernel<Op>::Prefix(v, out, n, std::move(carry));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      carry = Op::combine(carry, v[i]);
      out[i] = carry;
    }
  }
}

}  // namespace slick::ops
