// Vectorized kernels (DESIGN.md §11, §16): the dispatchers must agree with
// a plain sequential combine loop — bit-identically for the integer and
// selective (min/max) scans, and within an accumulated-rounding ULP bound
// for floating-point sums, whose SIMD lanes reassociate the addition. Sizes
// straddle kSimdThreshold and every vector width's remainder handling, and
// each differential check runs once per compiled dispatch level (scalar
// plus whatever of AVX2/AVX-512/NEON the host supports), so the scalar
// kernels double as the oracle for every wide variant in one process.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ops/arith.h"
#include "ops/kernels.h"
#include "ops/minmax.h"
#include "ops/scan_kernels.h"
#include "ops/string_ops.h"
#include "ops/traits.h"
#include "util/rng.h"

namespace slick::ops {
namespace {

constexpr std::size_t kSizes[] = {0, 1, 7, 15, 16, 17, 64, 255, 1000};

// Runs `f(level)` once per dispatch level the host can execute, with the
// active level pinned for the duration. Restores the detected best after.
template <typename F>
void ForEachCompiledLevel(F&& f) {
  const auto best = static_cast<uint8_t>(kernels::DetectSimdLevel());
  for (uint8_t l = 0; l <= best; ++l) {
    const auto level = static_cast<kernels::SimdLevel>(l);
    kernels::SetSimdLevel(level);
    if (kernels::ActiveSimdLevel() != level) continue;  // not a real level
    f(level);
  }
  kernels::SetSimdLevel(kernels::DetectSimdLevel());
}

std::vector<int64_t> RandomInts(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng.NextBounded(1u << 20)) - (1 << 19);
  }
  return v;
}

std::vector<double> RandomDoubles(std::size_t n, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = (rng.NextDouble() - 0.5) * 1e6;
  return v;
}

TEST(KernelsTest, FoldAddInt64MatchesLoopExactly) {
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 17 + n);
    int64_t expect = 0;
    for (int64_t x : v) expect += x;
    EXPECT_EQ(kernels::FoldAdd(v.data(), n), expect) << "n=" << n;
  }
}

TEST(KernelsTest, FoldAddDoubleWithinReassociationBound) {
  for (std::size_t n : kSizes) {
    const std::vector<double> v = RandomDoubles(n, 29 + n);
    double expect = 0.0, abs_sum = 0.0;
    for (double x : v) {
      expect += x;
      abs_sum += std::abs(x);
    }
    EXPECT_NEAR(kernels::FoldAdd(v.data(), n), expect, 1e-12 * abs_sum)
        << "n=" << n;
  }
}

TEST(KernelsTest, FoldValuesUsesKernelForKernelOps) {
  const std::vector<int64_t> v = RandomInts(100, 37);
  int64_t sum = 0;
  for (int64_t x : v) sum += x;
  EXPECT_EQ(FoldValues<SumInt>(v.data(), v.size()), sum);
}

TEST(KernelsTest, FoldValuesGenericLoopPreservesOrder) {
  // Concat has no kernel: FoldValues must fall back to the in-order combine
  // loop, and the non-commutative result proves the order.
  const std::vector<std::string> v = {"a", "b", "c", "d"};
  EXPECT_EQ(FoldValues<Concat>(v.data(), v.size()), "abcd");
  EXPECT_EQ(FoldValues<Concat>(v.data(), 0), "");
}

TEST(KernelsTest, FoldDispatchersAgreeAcrossLevels) {
  // Every compiled fold variant against the sequential loop: exact for
  // int64, reassociation-bounded for the double sum.
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> iv = RandomInts(n, 41 + n);
    const std::vector<double> dv = RandomDoubles(n, 43 + n);
    int64_t isum = 0;
    double dsum = 0.0, dabs = 0.0;
    for (int64_t x : iv) isum += x;
    for (double x : dv) {
      dsum += x;
      dabs += std::abs(x);
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(kernels::FoldAdd(iv.data(), n), isum);
      EXPECT_NEAR(kernels::FoldAdd(dv.data(), n), dsum, 1e-12 * dabs);
    });
  }
}

// ------------------------------------------------------------------
// Structural scan kernels (ops/scan_kernels.h).
// ------------------------------------------------------------------

TEST(ScanKernelsTest, SuffixPrefixScanInt64ExactAcrossLevels) {
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 51 + n);
    const int64_t carry_add = 1234567;
    // Sequential recurrences, each seeded with a non-identity carry so the
    // carry plumbing is exercised too.
    std::vector<int64_t> suf_add(n), suf_max(n), suf_min(n);
    std::vector<int64_t> pre_add(n), pre_max(n), pre_min(n);
    {
      int64_t ca = carry_add, cx = 42, cn = -42;
      for (std::size_t i = n; i-- > 0;) {
        ca = v[i] + ca;
        cx = MaxInt::combine(v[i], cx);
        cn = MinInt::combine(v[i], cn);
        suf_add[i] = ca;
        suf_max[i] = cx;
        suf_min[i] = cn;
      }
      ca = carry_add;
      cx = 42;
      cn = -42;
      for (std::size_t i = 0; i < n; ++i) {
        ca = ca + v[i];
        cx = MaxInt::combine(cx, v[i]);
        cn = MinInt::combine(cn, v[i]);
        pre_add[i] = ca;
        pre_max[i] = cx;
        pre_min[i] = cn;
      }
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<int64_t> out(n);
      kernels::SuffixAdd(v.data(), out.data(), n, carry_add);
      EXPECT_EQ(out, suf_add);
      kernels::SuffixMax(v.data(), out.data(), n, int64_t{42});
      EXPECT_EQ(out, suf_max);
      kernels::SuffixMin(v.data(), out.data(), n, int64_t{-42});
      EXPECT_EQ(out, suf_min);
      kernels::PrefixAdd(v.data(), out.data(), n, carry_add);
      EXPECT_EQ(out, pre_add);
      kernels::PrefixMax(v.data(), out.data(), n, int64_t{42});
      EXPECT_EQ(out, pre_max);
      kernels::PrefixMin(v.data(), out.data(), n, int64_t{-42});
      EXPECT_EQ(out, pre_min);
    });
  }
}

TEST(ScanKernelsTest, SuffixPrefixScanDoubleAcrossLevels) {
  // min/max scans are bit-identical; the double-sum scan reassociates
  // within a block, so every element is compared under an accumulated
  // bound instead.
  for (std::size_t n : kSizes) {
    const std::vector<double> v = RandomDoubles(n, 53 + n);
    std::vector<double> suf_max(n), suf_min(n), suf_add(n), abs_suf(n);
    {
      double cx = Max::identity(), cn = Min::identity(), ca = 0.0, aa = 0.0;
      for (std::size_t i = n; i-- > 0;) {
        cx = Max::combine(v[i], cx);
        cn = Min::combine(v[i], cn);
        ca = v[i] + ca;
        aa += std::abs(v[i]);
        suf_max[i] = cx;
        suf_min[i] = cn;
        suf_add[i] = ca;
        abs_suf[i] = aa;
      }
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<double> out(n);
      kernels::SuffixMax(v.data(), out.data(), n, Max::identity());
      EXPECT_EQ(out, suf_max);
      kernels::SuffixMin(v.data(), out.data(), n, Min::identity());
      EXPECT_EQ(out, suf_min);
      kernels::SuffixAdd(v.data(), out.data(), n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(out[i], suf_add[i], 1e-12 * abs_suf[i]) << "i=" << i;
      }
    });
  }
}

TEST(ScanKernelsTest, InPlaceSuffixScanAllowed) {
  // The contract allows out == v exactly (the ring flip's in-place mode):
  // each block is loaded before its slot is stored.
  for (std::size_t n : kSizes) {
    const std::vector<int64_t> v = RandomInts(n, 57 + n);
    std::vector<int64_t> expect(n);
    int64_t c = MaxInt::identity();
    for (std::size_t i = n; i-- > 0;) {
      c = MaxInt::combine(v[i], c);
      expect[i] = c;
    }
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<int64_t> buf = v;
      kernels::SuffixMax(buf.data(), buf.data(), n, MaxInt::identity());
      EXPECT_EQ(buf, expect);
    });
  }
}

// Scalar survivor-staircase reference: bit k set iff element k strictly
// dominates the aggregate of everything after it (no later element absorbs
// it) — the condition SlickDeque (Non-Inv)'s bulk insert keeps a node for.
template <typename Op>
std::vector<uint64_t> ReferenceSurvivors(
    const std::vector<typename Op::value_type>& v,
    typename Op::value_type* total) {
  const std::size_t n = v.size();
  std::vector<uint64_t> mask((n + 63) / 64, 0);
  typename Op::value_type suffix = Op::identity();
  for (std::size_t k = n; k-- > 0;) {
    if (!Absorbs<Op>(suffix, v[k])) {
      mask[k >> 6] |= uint64_t{1} << (k & 63);
    }
    suffix = Op::combine(v[k], suffix);
  }
  *total = suffix;
  return mask;
}

TEST(ScanKernelsTest, SurvivorMasksMatchScalarStaircase) {
  // Duplicate-heavy input stresses the tie edges (ties never survive: the
  // absorbs tests are non-strict). Also covers values equal to ⊕'s
  // identity and an all-equal run.
  for (std::size_t n : kSizes) {
    if (n == 0) continue;  // the deque's bulk path never passes m == 0
    util::SplitMix64 rng(61 + n);
    std::vector<int64_t> iv(n);
    std::vector<double> dv(n);
    for (std::size_t i = 0; i < n; ++i) {
      iv[i] = static_cast<int64_t>(rng.NextBounded(8)) - 4;
      dv[i] = static_cast<double>(static_cast<int64_t>(rng.NextBounded(8))) -
              4.0;
    }
    if (n >= 3) {
      iv[n / 2] = MaxInt::identity();  // INT64_MIN payload
      dv[n / 3] = Min::identity();     // +inf payload
    }
    int64_t iexp_max = 0, iexp_min = 0;
    double dexp_max = 0.0, dexp_min = 0.0;
    const auto imask_max = ReferenceSurvivors<MaxInt>(iv, &iexp_max);
    const auto imask_min = ReferenceSurvivors<MinInt>(iv, &iexp_min);
    const auto dmask_max = ReferenceSurvivors<Max>(dv, &dexp_max);
    const auto dmask_min = ReferenceSurvivors<Min>(dv, &dexp_min);
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<uint64_t> mask((n + 63) / 64);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MaxSurvivors(iv.data(), n, mask.data()), iexp_max);
      EXPECT_EQ(mask, imask_max);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MinSurvivors(iv.data(), n, mask.data()), iexp_min);
      EXPECT_EQ(mask, imask_min);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MaxSurvivors(dv.data(), n, mask.data()), dexp_max);
      EXPECT_EQ(mask, dmask_max);
      mask.assign(mask.size(), 0);
      EXPECT_EQ(kernels::MinSurvivors(dv.data(), n, mask.data()), dexp_min);
      EXPECT_EQ(mask, dmask_min);
    });
  }
  // All-equal batch: only the newest element survives. Its own bit IS set
  // by the kernel (its suffix is empty, and 7 strictly dominates the
  // identity seed); every earlier element ties with the suffix aggregate
  // and strict dominance rejects it.
  const std::vector<int64_t> same(100, 7);
  ForEachCompiledLevel([&](kernels::SimdLevel level) {
    SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level));
    std::vector<uint64_t> mask(2, 0);
    EXPECT_EQ(kernels::MaxSurvivors(same.data(), same.size(), mask.data()),
              7);
    EXPECT_EQ(mask[0], 0u);
    EXPECT_EQ(mask[1], uint64_t{1} << 35);  // bit 99 = newest
  });
}

TEST(ScanKernelsTest, SubtractArraysMatchesScalar) {
  for (std::size_t n : kSizes) {
    const std::vector<double> a = RandomDoubles(n, 71 + n);
    const std::vector<double> b = RandomDoubles(n, 73 + n);
    std::vector<double> expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = a[i] - b[i];
    ForEachCompiledLevel([&](kernels::SimdLevel level) {
      SCOPED_TRACE(std::string("level=") + kernels::SimdLevelName(level) +
                   " n=" + std::to_string(n));
      std::vector<double> out(n);
      kernels::SubtractArrays(a.data(), b.data(), out.data(), n);
      EXPECT_EQ(out, expect);
    });
  }
}

TEST(ScanKernelsTest, GenericScanWrappersFallBackInOrder) {
  // Concat has no scan kernel: SuffixScanValues/PrefixScanValues must run
  // the exact in-order combine recurrence.
  const std::vector<std::string> v = {"a", "b", "c", "d", "e"};
  std::vector<std::string> out(v.size());
  SuffixScanValues<Concat>(v.data(), out.data(), v.size(), std::string{});
  EXPECT_EQ(out.front(), "abcde");
  EXPECT_EQ(out.back(), "e");
  PrefixScanValues<Concat>(v.data(), out.data(), v.size(), std::string{"X"});
  EXPECT_EQ(out.front(), "Xa");
  EXPECT_EQ(out.back(), "Xabcde");
}

TEST(ScanKernelsTest, SetSimdLevelClampsToDetected) {
  const kernels::SimdLevel best = kernels::DetectSimdLevel();
  kernels::SetSimdLevel(kernels::SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(kernels::ActiveSimdLevel()),
            static_cast<int>(best));
  const kernels::SimdLevel prev =
      kernels::SetSimdLevel(kernels::SimdLevel::kScalar);
  EXPECT_EQ(kernels::ActiveSimdLevel(), kernels::SimdLevel::kScalar);
  EXPECT_LE(static_cast<int>(prev), static_cast<int>(best));
  kernels::SetSimdLevel(best);
}

// ------------------------------------------------------------------
// Special-value payloads: ±Inf, ±0.0 and the smallest denormal (and, for
// the folds, NaN) at random positions among integer-valued doubles, whose
// partial sums are exact under any association. Every compiled level must
// reproduce the scalar level's output bit for bit: memcmp, because
// EXPECT_EQ takes -0.0 for 0.0 and never matches a NaN.
// ------------------------------------------------------------------

std::vector<double> SpecialDoubles(std::size_t n, uint64_t seed,
                                   bool with_nan) {
  util::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = static_cast<double>(static_cast<int64_t>(rng.NextBounded(1u << 20)) -
                            (1 << 19));
  }
  // NaN payloads come without infinities: Inf - Inf makes a NaN whose
  // sign bit differs from quiet_NaN(), and which of two NaNs a sum keeps
  // is the hardware's choice, not the kernel's.
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials =
      with_nan ? std::vector<double>{std::numeric_limits<double>::quiet_NaN(),
                                     0.0, -0.0,
                                     std::numeric_limits<double>::denorm_min()}
               : std::vector<double>{kInf, -kInf, 0.0, -0.0,
                                     std::numeric_limits<double>::denorm_min()};
  for (std::size_t k = 0; n > 0 && k < n / 16 + 1; ++k) {
    v[rng.NextBounded(n)] = specials[rng.NextBounded(specials.size())];
  }
  return v;
}

// `run()` returns a kernel's output as doubles; it is called once at the
// scalar level and once per compiled level, and every result must match
// the scalar one byte for byte.
template <typename F>
void ExpectBitIdenticalToScalar(const std::string& what, F&& run) {
  kernels::SetSimdLevel(kernels::SimdLevel::kScalar);
  const std::vector<double> expect = run();
  ForEachCompiledLevel([&](kernels::SimdLevel level) {
    const std::vector<double> got = run();
    ASSERT_EQ(got.size(), expect.size()) << what;
    // memcmp must not see the null data() of an empty output.
    EXPECT_TRUE(got.empty() || std::memcmp(got.data(), expect.data(),
                                           got.size() * sizeof(double)) == 0)
        << what << " level=" << kernels::SimdLevelName(level);
  });
}

void ExpectFoldsBitIdentical(bool with_nan) {
  for (std::size_t n : kSizes) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const std::vector<double> v =
          SpecialDoubles(n, 1000 * n + seed, with_nan);
      const std::string what = "n=" + std::to_string(n) +
                               " seed=" + std::to_string(seed);
      ExpectBitIdenticalToScalar("FoldAdd " + what, [&] {
        return std::vector<double>{kernels::FoldAdd(v.data(), n)};
      });
    }
  }
}

TEST(KernelsTest, FoldSpecialValuesBitIdenticalToScalar) {
  ExpectFoldsBitIdentical(/*with_nan=*/false);
}

TEST(KernelsTest, FoldNaNPayloadsBitIdenticalToScalar) {
  ExpectFoldsBitIdentical(/*with_nan=*/true);
}

TEST(ScanKernelsTest, ScanAndSurvivorSpecialValuesBitIdenticalToScalar) {
  struct Scan {
    const char* name;
    void (*fn)(const double*, double*, std::size_t, double);
  };
  const Scan scans[] = {
      {"SuffixAdd", kernels::SuffixAdd}, {"SuffixMax", kernels::SuffixMax},
      {"SuffixMin", kernels::SuffixMin}, {"PrefixAdd", kernels::PrefixAdd},
      {"PrefixMax", kernels::PrefixMax}, {"PrefixMin", kernels::PrefixMin}};
  for (std::size_t n : kSizes) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const std::vector<double> v = SpecialDoubles(n, 2000 * n + seed, false);
      const std::string what = " n=" + std::to_string(n) +
                               " seed=" + std::to_string(seed);
      for (const auto& [name, scan] : scans) {
        ExpectBitIdenticalToScalar(name + what, [&] {
          std::vector<double> out(n);
          scan(v.data(), out.data(), n, 3.0);
          return out;
        });
      }
      if (n == 0) continue;  // the deque's bulk path never passes m == 0
      // Survivor output: the batch aggregate, then the mask words.
      const auto survivors = [&](auto kernel) {
        std::vector<uint64_t> mask((n + 63) / 64, 0);
        std::vector<double> out{kernel(v.data(), n, mask.data())};
        for (uint64_t w : mask) out.push_back(std::bit_cast<double>(w));
        return out;
      };
      ExpectBitIdenticalToScalar("MaxSurvivors" + what, [&] {
        return survivors([](const double* p, std::size_t m, uint64_t* mask) {
          return kernels::MaxSurvivors(p, m, mask);
        });
      });
      ExpectBitIdenticalToScalar("MinSurvivors" + what, [&] {
        return survivors([](const double* p, std::size_t m, uint64_t* mask) {
          return kernels::MinSurvivors(p, m, mask);
        });
      });
    }
  }
}

// NaN payloads through the survivor masks. Nothing absorbs a NaN and a NaN
// absorbs nothing, so a NaN survives and restarts the suffix carry, as in
// the per-tuple pop loop. The scalar level must match the staircase
// reference, and every compiled level the scalar mask and total, bit for
// bit.
template <typename Op, typename Kernel>
void ExpectSurvivorsFollowAbsorbs(const std::string& what,
                                  const std::vector<double>& v,
                                  Kernel kernel) {
  // The batch aggregate, then the mask words.
  const auto as_doubles = [](double total,
                             const std::vector<uint64_t>& mask) {
    std::vector<double> out{total};
    for (uint64_t w : mask) out.push_back(std::bit_cast<double>(w));
    return out;
  };
  const auto run = [&] {
    std::vector<uint64_t> mask((v.size() + 63) / 64, 0);
    const double total = kernel(v.data(), v.size(), mask.data());
    return as_doubles(total, mask);
  };
  double total = 0.0;
  const std::vector<uint64_t> mask = ReferenceSurvivors<Op>(v, &total);
  const std::vector<double> expect = as_doubles(total, mask);
  kernels::SetSimdLevel(kernels::SimdLevel::kScalar);
  const std::vector<double> got = run();
  kernels::SetSimdLevel(kernels::DetectSimdLevel());
  EXPECT_TRUE(got.size() == expect.size() &&
              std::memcmp(got.data(), expect.data(),
                          got.size() * sizeof(double)) == 0)
      << what << " vs staircase";
  ExpectBitIdenticalToScalar(what, run);
}

TEST(ScanKernelsTest, SurvivorMasksFollowAbsorbsUnderNaN) {
  // Small integer values force ties; 10% NaN puts NaNs in most wide blocks
  // and in the carry between blocks.
  for (std::size_t n : kSizes) {
    if (n == 0) continue;  // the deque's bulk path never passes m == 0
    for (uint64_t seed = 0; seed < 20; ++seed) {
      util::SplitMix64 rng(4000 * n + seed);
      std::vector<double> v(n);
      for (auto& x : v) {
        x = rng.NextBounded(10) == 0
                ? std::numeric_limits<double>::quiet_NaN()
                : static_cast<double>(static_cast<int64_t>(rng.NextBounded(8)) -
                                      4);
      }
      const std::string what =
          " n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      ExpectSurvivorsFollowAbsorbs<Max>(
          "MaxSurvivors" + what,
          v, [](const double* p, std::size_t m, uint64_t* mask) {
            return kernels::MaxSurvivors(p, m, mask);
          });
      ExpectSurvivorsFollowAbsorbs<Min>(
          "MinSurvivors" + what,
          v, [](const double* p, std::size_t m, uint64_t* mask) {
            return kernels::MinSurvivors(p, m, mask);
          });
    }
  }
}

// Compile-time wiring of the batch traits.
static_assert(has_bulk_kernel<Sum>);
static_assert(has_bulk_kernel<SumInt>);
static_assert(has_bulk_kernel<SumOfSquares>);
static_assert(has_bulk_kernel<Count>);
static_assert(!has_bulk_kernel<Max>);
static_assert(!has_bulk_kernel<MaxInt>);
static_assert(!has_bulk_kernel<Min>);
static_assert(!has_bulk_kernel<MinInt>);
static_assert(!has_bulk_kernel<Concat>);
static_assert(!has_bulk_kernel<ArgMax>);
static_assert(!has_bulk_kernel<AlphaMax>);

// Scan kernels: registered for every fold-kernel op and for Max/Min;
// everything else takes the generic in-order recurrence.
static_assert(has_scan_kernel<Sum>);
static_assert(has_scan_kernel<SumInt>);
static_assert(has_scan_kernel<SumOfSquares>);
static_assert(has_scan_kernel<Count>);
static_assert(has_scan_kernel<Max>);
static_assert(has_scan_kernel<MaxInt>);
static_assert(has_scan_kernel<Min>);
static_assert(has_scan_kernel<MinInt>);
static_assert(!has_scan_kernel<Concat>);
static_assert(!has_scan_kernel<ArgMax>);
static_assert(!has_scan_kernel<First>);

// Survivor-mask kernels: total-order min/max only — ArgMax/ArgMin keep the
// exact scalar staircase (their absorbs is strict on keys, not values).
static_assert(has_survivor_kernel<Max>);
static_assert(has_survivor_kernel<MaxInt>);
static_assert(has_survivor_kernel<Min>);
static_assert(has_survivor_kernel<MinInt>);
static_assert(!has_survivor_kernel<ArgMax>);
static_assert(!has_survivor_kernel<ArgMin>);
static_assert(!has_survivor_kernel<AlphaMax>);

static_assert(TotalOrderSelectiveOp<Max>);
static_assert(TotalOrderSelectiveOp<Min>);
static_assert(TotalOrderSelectiveOp<MaxInt>);
static_assert(TotalOrderSelectiveOp<ArgMax>);
static_assert(TotalOrderSelectiveOp<ArgMin>);
static_assert(TotalOrderSelectiveOp<AlphaMax>);
static_assert(!TotalOrderSelectiveOp<First>);
static_assert(!TotalOrderSelectiveOp<SumInt>);
static_assert(!TotalOrderSelectiveOp<Concat>);

}  // namespace
}  // namespace slick::ops
