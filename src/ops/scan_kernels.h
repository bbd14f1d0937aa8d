#pragma once

// Structural scan kernels (DESIGN.md §16): the SIMD layer behind the
// TwoStacks flip, SlickDeque (Non-Inv)'s staircase reduction, and the
// shared multi-query answer walk.
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
//  * PrefixCountGreater — length of the maximal leading run of a
//    descending-sorted array strictly greater than a bound: one node of
//    the multi-query walk answers exactly that many ranges.
//  * SubtractArrays — out[i] = a[i] - b[i], the Range = Max - Min
//    projection over a batch of due answers.
//
// Exactness contract (same shape as ops/kernels.h): integer scans and all
// min/max scans and survivor masks are bit-identical to the sequential
// combine recurrence regardless of dispatch level — blocked evaluation
// only regroups the chain, association order within the sequence is
// preserved, and left-biased selection is associative. Floating-point
// *sum* scans reassociate (in-register log-step scan), so they are
// ULP-bounded, not bit-equal. The min/max kernels assume NaN-free input:
// a NaN breaks the total order that kAbsorbsTotal (and the blocked
// regrouping) relies on; NaN-laden streams take the generic scalar paths
// by using ops without registered kernels.
//
// Every wide variant carries a per-function target attribute; dispatch is
// ops/simd_dispatch.h's cached one-time level resolution. The scalar
// kernels are the always-available fallback and the differential oracle
// (tests/kernels_test.cc drives every compiled variant against them).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
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
// for the order-induced absorbs of Max/Min. Mask words must arrive
// zeroed; the newest element (k = n-1) gets the identity as its suffix,
// so callers that must keep it unconditionally (SlickDeque) force its
// bit afterwards.
// ------------------------------------------------------------------

SLICK_REALTIME inline double MaxSurvivorsScalar(const double* v, std::size_t n,
                                                uint64_t* mask) {
  double carry = Max::identity();
  for (std::size_t i = n; i-- > 0;) {
    if (carry < v[i]) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = carry < v[i] ? v[i] : carry;
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
    if (v[i] < carry) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = v[i] < carry ? v[i] : carry;
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
// Scalar multi-query helpers.
// ------------------------------------------------------------------

/// Length of the maximal leading run of `v` (sorted descending) with
/// v[j] > bound. With a descending array this is also the count of all
/// elements > bound, which is what the multi-query walk needs: the
/// current deque node answers exactly the ranges still above its age.
SLICK_REALTIME inline std::size_t PrefixCountGreaterScalar(
    const std::size_t* v, std::size_t n, std::size_t bound) {
  std::size_t i = 0;
  while (i < n && v[i] > bound) ++i;
  return i;
}

SLICK_REALTIME inline void SubtractArraysScalar(
    const double* SLICK_RESTRICT a, const double* SLICK_RESTRICT b,
    double* SLICK_RESTRICT out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

#if defined(SLICK_SIMD_X86)

// ------------------------------------------------------------------
// AVX2 variants. Lane-shift helpers move elements toward lane 0 (Down,
// suffix scans) or lane 3 (Up, prefix scans), filling vacated lanes from
// `fill` (the op identity). The combine helpers order maxpd/minpd
// operands so each lane behaves exactly like the scalar comparison (the
// second operand wins compares-false and NaN, matching ops/kernels.h).
//
// Blocked scan shape: 2 log-steps build the in-block running aggregate
// preserving sequence order, the block result combines with the carried
// aggregate of everything already scanned, and only a 1-lane broadcast +
// combine stays on the block-to-block critical path.
// ------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d Avx2AddPd(__m256d a,
                                                         __m256d b) {
  return _mm256_add_pd(a, b);
}
// combine(a, b) = a < b ? b : a, NaN keeps a.
__attribute__((target("avx2"))) inline __m256d Avx2MaxPd(__m256d a,
                                                         __m256d b) {
  return _mm256_max_pd(b, a);
}
// combine(a, b) = b < a ? b : a, NaN keeps a.
__attribute__((target("avx2"))) inline __m256d Avx2MinPd(__m256d a,
                                                         __m256d b) {
  return _mm256_min_pd(b, a);
}
__attribute__((target("avx2"))) inline __m256i Avx2AddI64(__m256i a,
                                                          __m256i b) {
  return _mm256_add_epi64(a, b);
}
// combine(a, b) = a < b ? b : a (AVX2 has no packed 64-bit max).
__attribute__((target("avx2"))) inline __m256i Avx2MaxI64(__m256i a,
                                                          __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
}
// combine(a, b) = b < a ? b : a.
__attribute__((target("avx2"))) inline __m256i Avx2MinI64(__m256i a,
                                                          __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) inline __m256d Avx2Down1Pd(__m256d x,
                                                           __m256d fill) {
  return _mm256_blend_pd(_mm256_permute4x64_pd(x, _MM_SHUFFLE(3, 3, 2, 1)),
                         fill, 0b1000);
}
__attribute__((target("avx2"))) inline __m256d Avx2Down2Pd(__m256d x,
                                                           __m256d fill) {
  return _mm256_blend_pd(_mm256_permute4x64_pd(x, _MM_SHUFFLE(3, 3, 3, 2)),
                         fill, 0b1100);
}
__attribute__((target("avx2"))) inline __m256d Avx2Up1Pd(__m256d x,
                                                         __m256d fill) {
  return _mm256_blend_pd(_mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 0)),
                         fill, 0b0001);
}
__attribute__((target("avx2"))) inline __m256d Avx2Up2Pd(__m256d x,
                                                         __m256d fill) {
  return _mm256_blend_pd(_mm256_permute4x64_pd(x, _MM_SHUFFLE(1, 0, 0, 0)),
                         fill, 0b0011);
}
__attribute__((target("avx2"))) inline __m256i Avx2Down1I64(__m256i x,
                                                            __m256i fill) {
  return _mm256_blend_epi32(_mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 2, 1)),
                            fill, 0b11000000);
}
__attribute__((target("avx2"))) inline __m256i Avx2Down2I64(__m256i x,
                                                            __m256i fill) {
  return _mm256_blend_epi32(_mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 3, 2)),
                            fill, 0b11110000);
}
__attribute__((target("avx2"))) inline __m256i Avx2Up1I64(__m256i x,
                                                          __m256i fill) {
  return _mm256_blend_epi32(_mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0)),
                            fill, 0b00000011);
}
__attribute__((target("avx2"))) inline __m256i Avx2Up2I64(__m256i x,
                                                          __m256i fill) {
  return _mm256_blend_epi32(_mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 0, 0, 0)),
                            fill, 0b00001111);
}

__attribute__((target("avx2"))) inline __m256d Avx2Lane0Pd(__m256d x) {
  return _mm256_permute4x64_pd(x, 0);
}
__attribute__((target("avx2"))) inline __m256d Avx2Lane3Pd(__m256d x) {
  return _mm256_permute4x64_pd(x, 0xFF);
}
__attribute__((target("avx2"))) inline __m256i Avx2Lane0I64(__m256i x) {
  return _mm256_permute4x64_epi64(x, 0);
}
__attribute__((target("avx2"))) inline __m256i Avx2Lane3I64(__m256i x) {
  return _mm256_permute4x64_epi64(x, 0xFF);
}

#define SLICK_AVX2_SUFFIX_SCAN(NAME, TYPE, VEC, COMBINE, DOWN1, DOWN2,       \
                               LANE0, SET1, LOAD, STORE, IDENT, SCALAR_STEP) \
  __attribute__((target("avx2"))) inline void NAME(                         \
      const TYPE* v, TYPE* out, std::size_t n, TYPE carry) {                \
    const VEC fill = SET1(IDENT);                                           \
    std::size_t i = n;                                                      \
    while (i % 4 != 0) {                                                    \
      --i;                                                                  \
      SCALAR_STEP;                                                          \
      out[i] = carry;                                                       \
    }                                                                       \
    VEC c = SET1(carry);                                                    \
    for (; i != 0; i -= 4) {                                                \
      VEC x = LOAD(v + i - 4);                                              \
      x = COMBINE(x, DOWN1(x, fill));                                       \
      x = COMBINE(x, DOWN2(x, fill));                                       \
      STORE(out + i - 4, COMBINE(x, c));                                    \
      c = COMBINE(LANE0(x), c);                                             \
    }                                                                       \
  }

#define SLICK_AVX2_PREFIX_SCAN(NAME, TYPE, VEC, COMBINE, UP1, UP2, LANE3,   \
                               SET1, LOAD, STORE, IDENT, SCALAR_STEP)       \
  __attribute__((target("avx2"))) inline void NAME(                         \
      const TYPE* v, TYPE* out, std::size_t n, TYPE carry) {                \
    const VEC fill = SET1(IDENT);                                           \
    VEC c = SET1(carry);                                                    \
    std::size_t i = 0;                                                      \
    for (; i + 4 <= n; i += 4) {                                            \
      VEC x = LOAD(v + i);                                                  \
      x = COMBINE(UP1(x, fill), x);                                         \
      x = COMBINE(UP2(x, fill), x);                                         \
      STORE(out + i, COMBINE(c, x));                                        \
      c = COMBINE(c, LANE3(x));                                             \
    }                                                                       \
    if (i < n) {                                                            \
      TYPE lanes[4];                                                        \
      STORE(lanes, c);                                                      \
      carry = lanes[0];                                                     \
      for (; i < n; ++i) {                                                  \
        SCALAR_STEP;                                                        \
        out[i] = carry;                                                     \
      }                                                                     \
    }                                                                       \
  }

#define SLICK_LOADU_PD(p) _mm256_loadu_pd(p)
#define SLICK_STOREU_PD(p, x) _mm256_storeu_pd((p), (x))
#define SLICK_LOADU_I64(p) \
  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define SLICK_STOREU_I64(p, x) \
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), (x))

SLICK_AVX2_SUFFIX_SCAN(SuffixAddAvx2, double, __m256d, Avx2AddPd, Avx2Down1Pd,
                       Avx2Down2Pd, Avx2Lane0Pd, _mm256_set1_pd,
                       SLICK_LOADU_PD, SLICK_STOREU_PD, 0.0,
                       carry = v[i] + carry)
SLICK_AVX2_SUFFIX_SCAN(SuffixAddAvx2, int64_t, __m256i, Avx2AddI64,
                       Avx2Down1I64, Avx2Down2I64, Avx2Lane0I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       int64_t{0}, carry = v[i] + carry)
SLICK_AVX2_SUFFIX_SCAN(SuffixMaxAvx2, double, __m256d, Avx2MaxPd, Avx2Down1Pd,
                       Avx2Down2Pd, Avx2Lane0Pd, _mm256_set1_pd,
                       SLICK_LOADU_PD, SLICK_STOREU_PD, Max::identity(),
                       carry = v[i] < carry ? carry : v[i])
SLICK_AVX2_SUFFIX_SCAN(SuffixMaxAvx2, int64_t, __m256i, Avx2MaxI64,
                       Avx2Down1I64, Avx2Down2I64, Avx2Lane0I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       MaxInt::identity(),
                       carry = v[i] < carry ? carry : v[i])
SLICK_AVX2_SUFFIX_SCAN(SuffixMinAvx2, double, __m256d, Avx2MinPd, Avx2Down1Pd,
                       Avx2Down2Pd, Avx2Lane0Pd, _mm256_set1_pd,
                       SLICK_LOADU_PD, SLICK_STOREU_PD, Min::identity(),
                       carry = carry < v[i] ? carry : v[i])
SLICK_AVX2_SUFFIX_SCAN(SuffixMinAvx2, int64_t, __m256i, Avx2MinI64,
                       Avx2Down1I64, Avx2Down2I64, Avx2Lane0I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       MinInt::identity(),
                       carry = carry < v[i] ? carry : v[i])

SLICK_AVX2_PREFIX_SCAN(PrefixAddAvx2, double, __m256d, Avx2AddPd, Avx2Up1Pd,
                       Avx2Up2Pd, Avx2Lane3Pd, _mm256_set1_pd, SLICK_LOADU_PD,
                       SLICK_STOREU_PD, 0.0, carry = carry + v[i])
SLICK_AVX2_PREFIX_SCAN(PrefixAddAvx2, int64_t, __m256i, Avx2AddI64,
                       Avx2Up1I64, Avx2Up2I64, Avx2Lane3I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       int64_t{0}, carry = carry + v[i])
SLICK_AVX2_PREFIX_SCAN(PrefixMaxAvx2, double, __m256d, Avx2MaxPd, Avx2Up1Pd,
                       Avx2Up2Pd, Avx2Lane3Pd, _mm256_set1_pd, SLICK_LOADU_PD,
                       SLICK_STOREU_PD, Max::identity(),
                       carry = carry < v[i] ? v[i] : carry)
SLICK_AVX2_PREFIX_SCAN(PrefixMaxAvx2, int64_t, __m256i, Avx2MaxI64,
                       Avx2Up1I64, Avx2Up2I64, Avx2Lane3I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       MaxInt::identity(), carry = carry < v[i] ? v[i] : carry)
SLICK_AVX2_PREFIX_SCAN(PrefixMinAvx2, double, __m256d, Avx2MinPd, Avx2Up1Pd,
                       Avx2Up2Pd, Avx2Lane3Pd, _mm256_set1_pd, SLICK_LOADU_PD,
                       SLICK_STOREU_PD, Min::identity(),
                       carry = v[i] < carry ? v[i] : carry)
SLICK_AVX2_PREFIX_SCAN(PrefixMinAvx2, int64_t, __m256i, Avx2MinI64,
                       Avx2Up1I64, Avx2Up2I64, Avx2Lane3I64,
                       _mm256_set1_epi64x, SLICK_LOADU_I64, SLICK_STOREU_I64,
                       MinInt::identity(), carry = v[i] < carry ? v[i] : carry)

// Survivor masks: the in-block exclusive suffix is the inclusive scan
// shifted down one lane (identity-filled) combined with the carry, so one
// packed compare yields 4 survivor bits at once.

__attribute__((target("avx2"))) inline int64_t MaxSurvivorsAvx2(
    const int64_t* v, std::size_t n, uint64_t* mask) {
  const __m256i fill = _mm256_set1_epi64x(MaxInt::identity());
  std::size_t i = n;
  int64_t carry = MaxInt::identity();
  while (i % 4 != 0) {
    --i;
    if (carry < v[i]) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = carry < v[i] ? v[i] : carry;
  }
  __m256i c = _mm256_set1_epi64x(carry);
  for (; i != 0; i -= 4) {
    const __m256i x = SLICK_LOADU_I64(v + i - 4);
    __m256i incl = Avx2MaxI64(x, Avx2Down1I64(x, fill));
    incl = Avx2MaxI64(incl, Avx2Down2I64(incl, fill));
    const __m256i excl = Avx2MaxI64(Avx2Down1I64(incl, fill), c);
    const int m4 =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, excl)));
    mask[(i - 4) >> 6] |= static_cast<uint64_t>(static_cast<unsigned>(m4))
                          << ((i - 4) & 63);
    c = Avx2MaxI64(Avx2Lane0I64(incl), c);
  }
  return _mm256_extract_epi64(c, 0);
}

__attribute__((target("avx2"))) inline double MaxSurvivorsAvx2(
    const double* v, std::size_t n, uint64_t* mask) {
  const __m256d fill = _mm256_set1_pd(Max::identity());
  std::size_t i = n;
  double carry = Max::identity();
  while (i % 4 != 0) {
    --i;
    if (carry < v[i]) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = carry < v[i] ? v[i] : carry;
  }
  __m256d c = _mm256_set1_pd(carry);
  for (; i != 0; i -= 4) {
    const __m256d x = SLICK_LOADU_PD(v + i - 4);
    __m256d incl = Avx2MaxPd(x, Avx2Down1Pd(x, fill));
    incl = Avx2MaxPd(incl, Avx2Down2Pd(incl, fill));
    const __m256d excl = Avx2MaxPd(Avx2Down1Pd(incl, fill), c);
    const int m4 = _mm256_movemask_pd(_mm256_cmp_pd(x, excl, _CMP_GT_OQ));
    mask[(i - 4) >> 6] |= static_cast<uint64_t>(static_cast<unsigned>(m4))
                          << ((i - 4) & 63);
    c = Avx2MaxPd(Avx2Lane0Pd(incl), c);
  }
  return _mm256_cvtsd_f64(c);
}

__attribute__((target("avx2"))) inline int64_t MinSurvivorsAvx2(
    const int64_t* v, std::size_t n, uint64_t* mask) {
  const __m256i fill = _mm256_set1_epi64x(MinInt::identity());
  std::size_t i = n;
  int64_t carry = MinInt::identity();
  while (i % 4 != 0) {
    --i;
    if (v[i] < carry) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = v[i] < carry ? v[i] : carry;
  }
  __m256i c = _mm256_set1_epi64x(carry);
  for (; i != 0; i -= 4) {
    const __m256i x = SLICK_LOADU_I64(v + i - 4);
    __m256i incl = Avx2MinI64(x, Avx2Down1I64(x, fill));
    incl = Avx2MinI64(incl, Avx2Down2I64(incl, fill));
    const __m256i excl = Avx2MinI64(Avx2Down1I64(incl, fill), c);
    const int m4 =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(excl, x)));
    mask[(i - 4) >> 6] |= static_cast<uint64_t>(static_cast<unsigned>(m4))
                          << ((i - 4) & 63);
    c = Avx2MinI64(Avx2Lane0I64(incl), c);
  }
  return _mm256_extract_epi64(c, 0);
}

__attribute__((target("avx2"))) inline double MinSurvivorsAvx2(
    const double* v, std::size_t n, uint64_t* mask) {
  const __m256d fill = _mm256_set1_pd(Min::identity());
  std::size_t i = n;
  double carry = Min::identity();
  while (i % 4 != 0) {
    --i;
    if (v[i] < carry) mask[i >> 6] |= uint64_t{1} << (i & 63);
    carry = v[i] < carry ? v[i] : carry;
  }
  __m256d c = _mm256_set1_pd(carry);
  for (; i != 0; i -= 4) {
    const __m256d x = SLICK_LOADU_PD(v + i - 4);
    __m256d incl = Avx2MinPd(x, Avx2Down1Pd(x, fill));
    incl = Avx2MinPd(incl, Avx2Down2Pd(incl, fill));
    const __m256d excl = Avx2MinPd(Avx2Down1Pd(incl, fill), c);
    const int m4 = _mm256_movemask_pd(_mm256_cmp_pd(x, excl, _CMP_LT_OQ));
    mask[(i - 4) >> 6] |= static_cast<uint64_t>(static_cast<unsigned>(m4))
                          << ((i - 4) & 63);
    c = Avx2MinPd(Avx2Lane0Pd(incl), c);
  }
  return _mm256_cvtsd_f64(c);
}

__attribute__((target("avx2"))) inline std::size_t PrefixCountGreaterAvx2(
    const std::size_t* v, std::size_t n, std::size_t bound) {
  static_assert(sizeof(std::size_t) == sizeof(int64_t),
                "64-bit size_t assumed by the packed compare");
  // Bias by 2^63 so the signed packed compare orders unsigned values.
  const __m256i sign = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  const __m256i b = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<int64_t>(bound)), sign);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), sign);
    const int m =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, b)));
    if (m != 0b1111) {
      return i + static_cast<std::size_t>(
                     std::countr_one(static_cast<unsigned>(m)));
    }
  }
  while (i < n && v[i] > bound) ++i;
  return i;
}

__attribute__((target("avx2"))) inline void SubtractArraysAvx2(
    const double* SLICK_RESTRICT a, const double* SLICK_RESTRICT b,
    double* SLICK_RESTRICT out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

// ------------------------------------------------------------------
// AVX-512F variants: 8 lanes, valignq-based lane shifts, native 64-bit
// integer min/max, and compare-to-mask producing 8 survivor bits per
// block. (-mavx512f implies AVX2 in GCC/clang, and any host passing the
// avx512f CPUID test has AVX2, so the 256-bit helpers remain usable.)
//
// GCC's _mm512_max_pd/_mm512_alignr_epi64 are built on
// _mm512_undefined_*(), whose self-initialized local trips a
// -Wmaybe-uninitialized false positive when inlined here (GCC PR105593);
// the pragma scopes the suppression to this section only.
// ------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

__attribute__((target("avx512f"))) inline __m512d Avx512AddPd(__m512d a,
                                                              __m512d b) {
  return _mm512_add_pd(a, b);
}
__attribute__((target("avx512f"))) inline __m512d Avx512MaxPd(__m512d a,
                                                              __m512d b) {
  return _mm512_max_pd(b, a);
}
__attribute__((target("avx512f"))) inline __m512d Avx512MinPd(__m512d a,
                                                              __m512d b) {
  return _mm512_min_pd(b, a);
}
__attribute__((target("avx512f"))) inline __m512i Avx512AddI64(__m512i a,
                                                               __m512i b) {
  return _mm512_add_epi64(a, b);
}
__attribute__((target("avx512f"))) inline __m512i Avx512MaxI64(__m512i a,
                                                               __m512i b) {
  return _mm512_max_epi64(a, b);
}
__attribute__((target("avx512f"))) inline __m512i Avx512MinI64(__m512i a,
                                                               __m512i b) {
  return _mm512_min_epi64(a, b);
}

// Lane j of DownK is x[j+k] (identity above); lane j of UpK is x[j-k]
// (identity below) — valignq over the {x, identity} pair.
__attribute__((target("avx512f"))) inline __m512i Avx512DownKI64(
    __m512i x, __m512i fill, int k) {
  switch (k) {
    case 1: return _mm512_alignr_epi64(fill, x, 1);
    case 2: return _mm512_alignr_epi64(fill, x, 2);
    default: return _mm512_alignr_epi64(fill, x, 4);
  }
}
__attribute__((target("avx512f"))) inline __m512i Avx512UpKI64(__m512i x,
                                                               __m512i fill,
                                                               int k) {
  switch (k) {
    case 1: return _mm512_alignr_epi64(x, fill, 7);
    case 2: return _mm512_alignr_epi64(x, fill, 6);
    default: return _mm512_alignr_epi64(x, fill, 4);
  }
}
__attribute__((target("avx512f"))) inline __m512d Avx512DownKPd(__m512d x,
                                                                __m512d fill,
                                                                int k) {
  return _mm512_castsi512_pd(Avx512DownKI64(
      _mm512_castpd_si512(x), _mm512_castpd_si512(fill), k));
}
__attribute__((target("avx512f"))) inline __m512d Avx512UpKPd(__m512d x,
                                                              __m512d fill,
                                                              int k) {
  return _mm512_castsi512_pd(Avx512UpKI64(
      _mm512_castpd_si512(x), _mm512_castpd_si512(fill), k));
}

__attribute__((target("avx512f"))) inline __m512d Avx512Lane0Pd(__m512d x) {
  return _mm512_broadcastsd_pd(_mm512_castpd512_pd128(x));
}
__attribute__((target("avx512f"))) inline __m512d Avx512Lane7Pd(__m512d x) {
  return _mm512_permutexvar_pd(_mm512_set1_epi64(7), x);
}
__attribute__((target("avx512f"))) inline __m512i Avx512Lane0I64(__m512i x) {
  return _mm512_broadcastq_epi64(_mm512_castsi512_si128(x));
}
__attribute__((target("avx512f"))) inline __m512i Avx512Lane7I64(__m512i x) {
  return _mm512_permutexvar_epi64(_mm512_set1_epi64(7), x);
}

#define SLICK_AVX512_SUFFIX_SCAN(NAME, TYPE, VEC, COMBINE, DOWNK, LANE0,    \
                                 SET1, LOAD, STORE, IDENT, SCALAR_STEP)     \
  __attribute__((target("avx512f"))) inline void NAME(                      \
      const TYPE* v, TYPE* out, std::size_t n, TYPE carry) {                \
    const VEC fill = SET1(IDENT);                                           \
    std::size_t i = n;                                                      \
    while (i % 8 != 0) {                                                    \
      --i;                                                                  \
      SCALAR_STEP;                                                          \
      out[i] = carry;                                                       \
    }                                                                       \
    VEC c = SET1(carry);                                                    \
    for (; i != 0; i -= 8) {                                                \
      VEC x = LOAD(v + i - 8);                                              \
      x = COMBINE(x, DOWNK(x, fill, 1));                                    \
      x = COMBINE(x, DOWNK(x, fill, 2));                                    \
      x = COMBINE(x, DOWNK(x, fill, 4));                                    \
      STORE(out + i - 8, COMBINE(x, c));                                    \
      c = COMBINE(LANE0(x), c);                                             \
    }                                                                       \
  }

#define SLICK_AVX512_PREFIX_SCAN(NAME, TYPE, VEC, COMBINE, UPK, LANE7,      \
                                 SET1, LOAD, STORE, IDENT, SCALAR_STEP)     \
  __attribute__((target("avx512f"))) inline void NAME(                      \
      const TYPE* v, TYPE* out, std::size_t n, TYPE carry) {                \
    const VEC fill = SET1(IDENT);                                           \
    VEC c = SET1(carry);                                                    \
    std::size_t i = 0;                                                      \
    for (; i + 8 <= n; i += 8) {                                            \
      VEC x = LOAD(v + i);                                                  \
      x = COMBINE(UPK(x, fill, 1), x);                                      \
      x = COMBINE(UPK(x, fill, 2), x);                                      \
      x = COMBINE(UPK(x, fill, 4), x);                                      \
      STORE(out + i, COMBINE(c, x));                                        \
      c = COMBINE(c, LANE7(x));                                             \
    }                                                                       \
    if (i < n) {                                                            \
      TYPE lanes[8];                                                        \
      STORE(lanes, c);                                                      \
      carry = lanes[0];                                                     \
      for (; i < n; ++i) {                                                  \
        SCALAR_STEP;                                                        \
        out[i] = carry;                                                     \
      }                                                                     \
    }                                                                       \
  }

#define SLICK_LOADU_PD512(p) _mm512_loadu_pd(p)
#define SLICK_STOREU_PD512(p, x) _mm512_storeu_pd((p), (x))
#define SLICK_LOADU_I512(p) _mm512_loadu_si512(p)
#define SLICK_STOREU_I512(p, x) _mm512_storeu_si512((p), (x))

SLICK_AVX512_SUFFIX_SCAN(SuffixAddAvx512, double, __m512d, Avx512AddPd,
                         Avx512DownKPd, Avx512Lane0Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512, 0.0,
                         carry = v[i] + carry)
SLICK_AVX512_SUFFIX_SCAN(SuffixAddAvx512, int64_t, __m512i, Avx512AddI64,
                         Avx512DownKI64, Avx512Lane0I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512, int64_t{0},
                         carry = v[i] + carry)
SLICK_AVX512_SUFFIX_SCAN(SuffixMaxAvx512, double, __m512d, Avx512MaxPd,
                         Avx512DownKPd, Avx512Lane0Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512,
                         Max::identity(), carry = v[i] < carry ? carry : v[i])
SLICK_AVX512_SUFFIX_SCAN(SuffixMaxAvx512, int64_t, __m512i, Avx512MaxI64,
                         Avx512DownKI64, Avx512Lane0I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512,
                         MaxInt::identity(),
                         carry = v[i] < carry ? carry : v[i])
SLICK_AVX512_SUFFIX_SCAN(SuffixMinAvx512, double, __m512d, Avx512MinPd,
                         Avx512DownKPd, Avx512Lane0Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512,
                         Min::identity(), carry = carry < v[i] ? carry : v[i])
SLICK_AVX512_SUFFIX_SCAN(SuffixMinAvx512, int64_t, __m512i, Avx512MinI64,
                         Avx512DownKI64, Avx512Lane0I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512,
                         MinInt::identity(),
                         carry = carry < v[i] ? carry : v[i])

SLICK_AVX512_PREFIX_SCAN(PrefixAddAvx512, double, __m512d, Avx512AddPd,
                         Avx512UpKPd, Avx512Lane7Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512, 0.0,
                         carry = carry + v[i])
SLICK_AVX512_PREFIX_SCAN(PrefixAddAvx512, int64_t, __m512i, Avx512AddI64,
                         Avx512UpKI64, Avx512Lane7I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512, int64_t{0},
                         carry = carry + v[i])
SLICK_AVX512_PREFIX_SCAN(PrefixMaxAvx512, double, __m512d, Avx512MaxPd,
                         Avx512UpKPd, Avx512Lane7Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512,
                         Max::identity(), carry = carry < v[i] ? v[i] : carry)
SLICK_AVX512_PREFIX_SCAN(PrefixMaxAvx512, int64_t, __m512i, Avx512MaxI64,
                         Avx512UpKI64, Avx512Lane7I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512,
                         MaxInt::identity(),
                         carry = carry < v[i] ? v[i] : carry)
SLICK_AVX512_PREFIX_SCAN(PrefixMinAvx512, double, __m512d, Avx512MinPd,
                         Avx512UpKPd, Avx512Lane7Pd, _mm512_set1_pd,
                         SLICK_LOADU_PD512, SLICK_STOREU_PD512,
                         Min::identity(), carry = v[i] < carry ? v[i] : carry)
SLICK_AVX512_PREFIX_SCAN(PrefixMinAvx512, int64_t, __m512i, Avx512MinI64,
                         Avx512UpKI64, Avx512Lane7I64, _mm512_set1_epi64,
                         SLICK_LOADU_I512, SLICK_STOREU_I512,
                         MinInt::identity(),
                         carry = v[i] < carry ? v[i] : carry)

#define SLICK_AVX512_SURVIVORS(NAME, TYPE, VEC, COMBINE, DOWNK, LANE0,      \
                               SET1, LOAD, CMPMASK, EXTRACT0, IDENT,        \
                               SCALAR_TEST, SCALAR_STEP)                    \
  __attribute__((target("avx512f"))) inline TYPE NAME(                     \
      const TYPE* v, std::size_t n, uint64_t* mask) {                       \
    const VEC fill = SET1(IDENT);                                           \
    std::size_t i = n;                                                      \
    TYPE carry = IDENT;                                                     \
    while (i % 8 != 0) {                                                    \
      --i;                                                                  \
      if (SCALAR_TEST) mask[i >> 6] |= uint64_t{1} << (i & 63);             \
      SCALAR_STEP;                                                          \
    }                                                                       \
    VEC c = SET1(carry);                                                    \
    for (; i != 0; i -= 8) {                                                \
      const VEC x = LOAD(v + i - 8);                                        \
      VEC incl = COMBINE(x, DOWNK(x, fill, 1));                             \
      incl = COMBINE(incl, DOWNK(incl, fill, 2));                           \
      incl = COMBINE(incl, DOWNK(incl, fill, 4));                           \
      const VEC excl = COMBINE(DOWNK(incl, fill, 1), c);                    \
      const __mmask8 m = CMPMASK(x, excl);                                  \
      mask[(i - 8) >> 6] |= static_cast<uint64_t>(m) << ((i - 8) & 63);     \
      c = COMBINE(LANE0(incl), c);                                          \
    }                                                                       \
    return EXTRACT0(c);                                                     \
  }

#define SLICK_CMP_GT_PD512(x, excl) _mm512_cmp_pd_mask((x), (excl), _CMP_GT_OQ)
#define SLICK_CMP_LT_PD512(x, excl) _mm512_cmp_pd_mask((x), (excl), _CMP_LT_OQ)
#define SLICK_CMP_GT_I512(x, excl) _mm512_cmpgt_epi64_mask((x), (excl))
#define SLICK_CMP_LT_I512(x, excl) _mm512_cmpgt_epi64_mask((excl), (x))
#define SLICK_EXTRACT0_PD512(c) _mm512_cvtsd_f64(c)
#define SLICK_EXTRACT0_I512(c) _mm_cvtsi128_si64(_mm512_castsi512_si128(c))

SLICK_AVX512_SURVIVORS(MaxSurvivorsAvx512, double, __m512d, Avx512MaxPd,
                       Avx512DownKPd, Avx512Lane0Pd, _mm512_set1_pd,
                       SLICK_LOADU_PD512, SLICK_CMP_GT_PD512,
                       SLICK_EXTRACT0_PD512, Max::identity(), carry < v[i],
                       carry = carry < v[i] ? v[i] : carry)
SLICK_AVX512_SURVIVORS(MaxSurvivorsAvx512, int64_t, __m512i, Avx512MaxI64,
                       Avx512DownKI64, Avx512Lane0I64, _mm512_set1_epi64,
                       SLICK_LOADU_I512, SLICK_CMP_GT_I512,
                       SLICK_EXTRACT0_I512, MaxInt::identity(), carry < v[i],
                       carry = carry < v[i] ? v[i] : carry)
SLICK_AVX512_SURVIVORS(MinSurvivorsAvx512, double, __m512d, Avx512MinPd,
                       Avx512DownKPd, Avx512Lane0Pd, _mm512_set1_pd,
                       SLICK_LOADU_PD512, SLICK_CMP_LT_PD512,
                       SLICK_EXTRACT0_PD512, Min::identity(), v[i] < carry,
                       carry = v[i] < carry ? v[i] : carry)
SLICK_AVX512_SURVIVORS(MinSurvivorsAvx512, int64_t, __m512i, Avx512MinI64,
                       Avx512DownKI64, Avx512Lane0I64, _mm512_set1_epi64,
                       SLICK_LOADU_I512, SLICK_CMP_LT_I512,
                       SLICK_EXTRACT0_I512, MinInt::identity(), v[i] < carry,
                       carry = v[i] < carry ? v[i] : carry)

__attribute__((target("avx512f"))) inline std::size_t PrefixCountGreaterAvx512(
    const std::size_t* v, std::size_t n, std::size_t bound) {
  static_assert(sizeof(std::size_t) == sizeof(uint64_t),
                "64-bit size_t assumed by the packed compare");
  const __m512i b = _mm512_set1_epi64(static_cast<int64_t>(bound));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 m =
        _mm512_cmpgt_epu64_mask(_mm512_loadu_si512(v + i), b);
    if (m != 0xFF) {
      return i + static_cast<std::size_t>(
                     std::countr_one(static_cast<unsigned char>(m)));
    }
  }
  while (i < n && v[i] > bound) ++i;
  return i;
}

__attribute__((target("avx512f"))) inline void SubtractArraysAvx512(
    const double* SLICK_RESTRICT a, const double* SLICK_RESTRICT b,
    double* SLICK_RESTRICT out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                            _mm512_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SLICK_SIMD_X86

#if defined(SLICK_SIMD_NEON)

// ------------------------------------------------------------------
// NEON variants (aarch64, 2 × 64-bit lanes). NEON lacks vmaxq_s64 and its
// vmaxq_f64 has the wrong NaN/tie behaviour for our combine shape, so all
// four min/max combines are compare + select. The 2-wide scan still beats
// the scalar recurrence on FP chains: the serialized per-block work is a
// single lane-0 combine instead of two dependent combines.
// ------------------------------------------------------------------

inline float64x2_t NeonAddF64(float64x2_t a, float64x2_t b) {
  return vaddq_f64(a, b);
}
inline float64x2_t NeonMaxF64(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcltq_f64(a, b), b, a);  // a < b ? b : a, NaN keeps a
}
inline float64x2_t NeonMinF64(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcltq_f64(b, a), b, a);  // b < a ? b : a, NaN keeps a
}
inline int64x2_t NeonAddI64(int64x2_t a, int64x2_t b) {
  return vaddq_s64(a, b);
}
inline int64x2_t NeonMaxI64(int64x2_t a, int64x2_t b) {
  return vbslq_s64(vcltq_s64(a, b), b, a);
}
inline int64x2_t NeonMinI64(int64x2_t a, int64x2_t b) {
  return vbslq_s64(vcltq_s64(b, a), b, a);
}

#define SLICK_NEON_SUFFIX_SCAN(NAME, TYPE, VEC, COMBINE, EXT, DUP0, SET1,   \
                               LOAD, STORE, IDENT, SCALAR_STEP)             \
  SLICK_REALTIME inline void NAME(const TYPE* v, TYPE* out, std::size_t n,  \
                                  TYPE carry) {                             \
    const VEC fill = SET1(IDENT);                                           \
    std::size_t i = n;                                                      \
    while (i % 2 != 0) {                                                    \
      --i;                                                                  \
      SCALAR_STEP;                                                          \
      out[i] = carry;                                                       \
    }                                                                       \
    VEC c = SET1(carry);                                                    \
    for (; i != 0; i -= 2) {                                                \
      VEC x = LOAD(v + i - 2);                                              \
      x = COMBINE(x, EXT(x, fill, 1));                                      \
      STORE(out + i - 2, COMBINE(x, c));                                    \
      c = COMBINE(DUP0(x, 0), c);                                           \
    }                                                                       \
  }

#define SLICK_NEON_PREFIX_SCAN(NAME, TYPE, VEC, COMBINE, EXT, DUP, SET1,    \
                               LOAD, STORE, IDENT, SCALAR_STEP)             \
  SLICK_REALTIME inline void NAME(const TYPE* v, TYPE* out, std::size_t n,  \
                                  TYPE carry) {                             \
    const VEC fill = SET1(IDENT);                                           \
    VEC c = SET1(carry);                                                    \
    std::size_t i = 0;                                                      \
    for (; i + 2 <= n; i += 2) {                                            \
      VEC x = LOAD(v + i);                                                  \
      x = COMBINE(EXT(fill, x, 1), x);                                      \
      STORE(out + i, COMBINE(c, x));                                        \
      c = COMBINE(c, DUP(x, 1));                                            \
    }                                                                       \
    if (i < n) {                                                            \
      TYPE lanes[2];                                                        \
      STORE(lanes, c);                                                      \
      carry = lanes[0];                                                     \
      for (; i < n; ++i) {                                                  \
        SCALAR_STEP;                                                        \
        out[i] = carry;                                                     \
      }                                                                     \
    }                                                                       \
  }

SLICK_NEON_SUFFIX_SCAN(SuffixAddNeon, double, float64x2_t, NeonAddF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, 0.0, carry = v[i] + carry)
SLICK_NEON_SUFFIX_SCAN(SuffixAddNeon, int64_t, int64x2_t, NeonAddI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, int64_t{0}, carry = v[i] + carry)
SLICK_NEON_SUFFIX_SCAN(SuffixMaxNeon, double, float64x2_t, NeonMaxF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, Max::identity(),
                       carry = v[i] < carry ? carry : v[i])
SLICK_NEON_SUFFIX_SCAN(SuffixMaxNeon, int64_t, int64x2_t, NeonMaxI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, MaxInt::identity(),
                       carry = v[i] < carry ? carry : v[i])
SLICK_NEON_SUFFIX_SCAN(SuffixMinNeon, double, float64x2_t, NeonMinF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, Min::identity(),
                       carry = carry < v[i] ? carry : v[i])
SLICK_NEON_SUFFIX_SCAN(SuffixMinNeon, int64_t, int64x2_t, NeonMinI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, MinInt::identity(),
                       carry = carry < v[i] ? carry : v[i])

SLICK_NEON_PREFIX_SCAN(PrefixAddNeon, double, float64x2_t, NeonAddF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, 0.0, carry = carry + v[i])
SLICK_NEON_PREFIX_SCAN(PrefixAddNeon, int64_t, int64x2_t, NeonAddI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, int64_t{0}, carry = carry + v[i])
SLICK_NEON_PREFIX_SCAN(PrefixMaxNeon, double, float64x2_t, NeonMaxF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, Max::identity(),
                       carry = carry < v[i] ? v[i] : carry)
SLICK_NEON_PREFIX_SCAN(PrefixMaxNeon, int64_t, int64x2_t, NeonMaxI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, MaxInt::identity(),
                       carry = carry < v[i] ? v[i] : carry)
SLICK_NEON_PREFIX_SCAN(PrefixMinNeon, double, float64x2_t, NeonMinF64,
                       vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                       vst1q_f64, Min::identity(),
                       carry = v[i] < carry ? v[i] : carry)
SLICK_NEON_PREFIX_SCAN(PrefixMinNeon, int64_t, int64x2_t, NeonMinI64,
                       vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                       vst1q_s64, MinInt::identity(),
                       carry = v[i] < carry ? v[i] : carry)

#define SLICK_NEON_SURVIVORS(NAME, TYPE, VEC, COMBINE, EXT, DUP0, SET1,     \
                             LOAD, CMP, GETLANE, IDENT, SCALAR_TEST,        \
                             SCALAR_STEP)                                   \
  SLICK_REALTIME inline TYPE NAME(const TYPE* v, std::size_t n,             \
                                  uint64_t* mask) {                         \
    const VEC fill = SET1(IDENT);                                           \
    std::size_t i = n;                                                      \
    TYPE carry = IDENT;                                                     \
    while (i % 2 != 0) {                                                    \
      --i;                                                                  \
      if (SCALAR_TEST) mask[i >> 6] |= uint64_t{1} << (i & 63);             \
      SCALAR_STEP;                                                          \
    }                                                                       \
    VEC c = SET1(carry);                                                    \
    for (; i != 0; i -= 2) {                                                \
      const VEC x = LOAD(v + i - 2);                                        \
      const VEC incl = COMBINE(x, EXT(x, fill, 1));                         \
      const VEC excl = COMBINE(EXT(incl, fill, 1), c);                      \
      const uint64x2_t gt = CMP(x, excl);                                   \
      const uint64_t bits = (vgetq_lane_u64(gt, 0) & 1u) |                  \
                            ((vgetq_lane_u64(gt, 1) & 1u) << 1);            \
      mask[(i - 2) >> 6] |= bits << ((i - 2) & 63);                         \
      c = COMBINE(DUP0(incl, 0), c);                                        \
    }                                                                       \
    return GETLANE(c, 0);                                                   \
  }

#define SLICK_NEON_CMP_GT_F64(x, excl) vcgtq_f64((x), (excl))
#define SLICK_NEON_CMP_LT_F64(x, excl) vcltq_f64((x), (excl))
#define SLICK_NEON_CMP_GT_I64(x, excl) vcgtq_s64((x), (excl))
#define SLICK_NEON_CMP_LT_I64(x, excl) vcltq_s64((x), (excl))

SLICK_NEON_SURVIVORS(MaxSurvivorsNeon, double, float64x2_t, NeonMaxF64,
                     vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                     SLICK_NEON_CMP_GT_F64, vgetq_lane_f64, Max::identity(),
                     carry < v[i], carry = carry < v[i] ? v[i] : carry)
SLICK_NEON_SURVIVORS(MaxSurvivorsNeon, int64_t, int64x2_t, NeonMaxI64,
                     vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                     SLICK_NEON_CMP_GT_I64, vgetq_lane_s64, MaxInt::identity(),
                     carry < v[i], carry = carry < v[i] ? v[i] : carry)
SLICK_NEON_SURVIVORS(MinSurvivorsNeon, double, float64x2_t, NeonMinF64,
                     vextq_f64, vdupq_laneq_f64, vdupq_n_f64, vld1q_f64,
                     SLICK_NEON_CMP_LT_F64, vgetq_lane_f64, Min::identity(),
                     v[i] < carry, carry = v[i] < carry ? v[i] : carry)
SLICK_NEON_SURVIVORS(MinSurvivorsNeon, int64_t, int64x2_t, NeonMinI64,
                     vextq_s64, vdupq_laneq_s64, vdupq_n_s64, vld1q_s64,
                     SLICK_NEON_CMP_LT_I64, vgetq_lane_s64, MinInt::identity(),
                     v[i] < carry, carry = v[i] < carry ? v[i] : carry)

SLICK_REALTIME inline std::size_t PrefixCountGreaterNeon(const std::size_t* v,
                                                         std::size_t n,
                                                         std::size_t bound) {
  static_assert(sizeof(std::size_t) == sizeof(uint64_t),
                "64-bit size_t assumed by the packed compare");
  const uint64x2_t b = vdupq_n_u64(bound);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t gt =
        vcgtq_u64(vld1q_u64(reinterpret_cast<const uint64_t*>(v + i)), b);
    if (vgetq_lane_u64(gt, 0) == 0) return i;
    if (vgetq_lane_u64(gt, 1) == 0) return i + 1;
  }
  while (i < n && v[i] > bound) ++i;
  return i;
}

SLICK_REALTIME inline void SubtractArraysNeon(const double* SLICK_RESTRICT a,
                                              const double* SLICK_RESTRICT b,
                                              double* SLICK_RESTRICT out,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

#endif  // SLICK_SIMD_NEON

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

SLICK_REALTIME inline std::size_t PrefixCountGreater(const std::size_t* v,
                                                     std::size_t n,
                                                     std::size_t bound) {
  SLICK_SIMD_DISPATCH_BODY(PrefixCountGreater, (v, n, bound))
}

SLICK_REALTIME inline void SubtractArrays(const double* SLICK_RESTRICT a,
                                          const double* SLICK_RESTRICT b,
                                          double* SLICK_RESTRICT out,
                                          std::size_t n) {
  SLICK_SIMD_DISPATCH_BODY(SubtractArrays, (a, b, out, n))
}

#undef SLICK_SCAN_DISPATCH
#undef SLICK_SURVIVOR_DISPATCH
#if defined(SLICK_SIMD_X86)
#undef SLICK_AVX2_SUFFIX_SCAN
#undef SLICK_AVX2_PREFIX_SCAN
#undef SLICK_AVX512_SUFFIX_SCAN
#undef SLICK_AVX512_PREFIX_SCAN
#undef SLICK_AVX512_SURVIVORS
#undef SLICK_LOADU_PD
#undef SLICK_STOREU_PD
#undef SLICK_LOADU_I64
#undef SLICK_STOREU_I64
#undef SLICK_LOADU_PD512
#undef SLICK_STOREU_PD512
#undef SLICK_LOADU_I512
#undef SLICK_STOREU_I512
#undef SLICK_CMP_GT_PD512
#undef SLICK_CMP_LT_PD512
#undef SLICK_CMP_GT_I512
#undef SLICK_CMP_LT_I512
#undef SLICK_EXTRACT0_PD512
#undef SLICK_EXTRACT0_I512
#endif
#if defined(SLICK_SIMD_NEON)
#undef SLICK_NEON_SUFFIX_SCAN
#undef SLICK_NEON_PREFIX_SCAN
#undef SLICK_NEON_SURVIVORS
#undef SLICK_NEON_CMP_GT_F64
#undef SLICK_NEON_CMP_LT_F64
#undef SLICK_NEON_CMP_GT_I64
#undef SLICK_NEON_CMP_LT_I64
#endif

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
