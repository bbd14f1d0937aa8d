// Empirical verification of the space complexities (paper §4.2, Table 1):
// per-structure byte accounting must track the analytical forms — n for
// Naive and SlickDeque (Inv), 2·2^⌈log₂n⌉ for FlatFAT/B-Int, 2n for
// FlatFIT/TwoStacks/DABA, input-dependent (≤ 2n, typically ≪ 2n) for
// SlickDeque (Non-Inv).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "util/math.h"
#include "util/rng.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

constexpr std::size_t kValue = sizeof(double);

template <typename Agg>
std::size_t FilledFootprint(std::size_t n, uint64_t seed = 5) {
  using Op = typename Agg::op_type;
  Agg agg(n);
  util::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < 2 * n + 2; ++i) {
    agg.slide(Op::lift(rng.NextDouble()));
  }
  return agg.memory_bytes();
}

class MemorySweep : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Windows, MemorySweep,
                         ::testing::Values(16, 64, 100, 1000, 1024, 1025,
                                           4096, 10000),
                         [](const auto& tpi) {
                           std::string name("n");
                           name += std::to_string(tpi.param);
                           return name;
                         });

TEST_P(MemorySweep, NaiveIsN) {
  const std::size_t n = GetParam();
  const std::size_t bytes = FilledFootprint<window::NaiveWindow<ops::Sum>>(n);
  EXPECT_GE(bytes, n * kValue);
  EXPECT_LE(bytes, n * kValue + 512);
}

TEST_P(MemorySweep, SlickDequeInvMatchesNaive) {
  // Paper: n + 1 — the only algorithm that matches Naive's footprint.
  const std::size_t n = GetParam();
  const std::size_t naive = FilledFootprint<window::NaiveWindow<ops::Sum>>(n);
  const std::size_t slick = FilledFootprint<core::SlickDequeInv<ops::Sum>>(n);
  EXPECT_LE(slick, naive + kValue + 64);
}

TEST_P(MemorySweep, FlatFatAndBIntRoundUpToTwicePowerOfTwo) {
  const std::size_t n = GetParam();
  const std::size_t rounded = util::NextPowerOfTwo(n);
  for (const std::size_t bytes :
       {FilledFootprint<window::FlatFat<ops::Sum>>(n),
        FilledFootprint<window::BInt<ops::Sum>>(n)}) {
    EXPECT_GE(bytes, 2 * rounded * kValue - 256);
    EXPECT_LE(bytes, 2 * rounded * kValue + 512);
  }
  // Worst case ~3n just above a power of two (paper §4.2).
  if (!util::IsPowerOfTwo(n)) {
    EXPECT_GE(2 * rounded, 2 * n);
  }
}

TEST_P(MemorySweep, FlatFitIsTwoN) {
  const std::size_t n = GetParam();
  const std::size_t bytes = FilledFootprint<window::FlatFit<ops::Sum>>(n);
  // vals (n values) + jump (n indices) + bounded stack scratch.
  EXPECT_GE(bytes, 2 * n * kValue);
  EXPECT_LE(bytes, 3 * n * kValue + 512);
}

TEST_P(MemorySweep, TwoStacksIsTwoN) {
  const std::size_t n = GetParam();
  const std::size_t bytes =
      FilledFootprint<core::Windowed<window::TwoStacks<ops::Sum>>>(n);
  // One buffer of exactly n (val, agg) pairs: the identity pre-fill sizes
  // it once and steady-state slides and flips never grow it.
  EXPECT_GE(bytes, 2 * n * kValue);
  EXPECT_LE(bytes, 2 * n * kValue + 512);
}

TEST_P(MemorySweep, DabaIsTwoNPlusChunkSlack) {
  const std::size_t n = GetParam();
  const std::size_t bytes =
      FilledFootprint<core::Windowed<window::Daba<ops::Sum>>>(n);
  // Slack: two partially used chunks plus one chunk pointer per chunk
  // (the paper's 2n + 4*sqrt(n) shape with k = n/64 fixed-size chunks).
  const std::size_t chunk_slack =
      2 * 64 * 2 * kValue + (n / 64 + 2) * sizeof(void*) + 1024;
  EXPECT_GE(bytes, 2 * n * kValue);
  EXPECT_LE(bytes, 2 * n * kValue + chunk_slack);
}

TEST_P(MemorySweep, SlickDequeNonInvFarBelowTwoNOnRandomInput) {
  // Paper Fig 15: the deque keeps only the monotone candidate suffix —
  // ~log(n) nodes for i.i.d. input — so the footprint is a small fraction
  // of every other algorithm's.
  const std::size_t n = GetParam();
  const std::size_t bytes =
      FilledFootprint<core::SlickDequeNonInv<ops::Max>>(n);
  if (n >= 1000) {
    EXPECT_LE(bytes, n * kValue / 2);
  }
  EXPECT_LE(bytes, 2 * n * kValue + 2 * 64 * 2 * kValue + 512);
}

TEST(MemoryShapeTest, SlickDequeNonInvWorstCaseIsTwoN) {
  // Descending input fills the deque: 2n (a node is a value and its slide
  // index) plus the object (§4.2).
  const std::size_t n = 4096;
  core::SlickDequeNonInv<ops::Max> agg(n);
  for (std::size_t i = 0; i < n; ++i) {
    agg.slide(static_cast<double>(n - i));
  }
  EXPECT_EQ(agg.node_count(), n);
  const std::size_t bytes = agg.memory_bytes();
  EXPECT_GE(bytes, 2 * n * kValue);
  EXPECT_LE(bytes, 2 * n * kValue + 4 * 64 * 2 * kValue + 512);
}

TEST(MemoryShapeTest, SlickDequeNonInvFullRingIsExactlyTheWindow) {
  // The node ring doubles from 64 slots but stops at exactly the window,
  // so a window that is not a power of two (3000: 2048 -> 3000, not 4096)
  // filled by descending input still costs 2n values plus the object.
  const std::size_t n = 3000;
  core::SlickDequeNonInv<ops::Max> agg(n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    agg.slide(static_cast<double>(2 * n - i));
  }
  EXPECT_EQ(agg.node_count(), n);
  EXPECT_LE(agg.memory_bytes(), 2 * n * kValue + 512);
}

TEST(MemoryShapeTest, SlickDequeNonInvRegisteredFaceAddsStageAndIndex) {
  // The registered face adds, beside the same full ring: a 64-slot stage
  // (its smallest range is 100), and per registered range an answer cursor
  // (range, seq, cache bound, cached value: 4 words) and 8-16 bytes of
  // index. The unregistered face carries none of it inline.
  const std::size_t n = 3000;
  const std::vector<std::size_t> ranges = {100, 1000, 2000, n};
  core::SlickDequeNonInv<ops::Max> reg(n, ranges);
  core::SlickDequeNonInv<ops::Max> twin(n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    reg.slide(static_cast<double>(2 * n - i));
    twin.slide(static_cast<double>(2 * n - i));
  }
  EXPECT_EQ(reg.node_count(), n);
  EXPECT_LE(twin.memory_bytes(), 2 * n * kValue + 512);
  const std::size_t added = reg.memory_bytes() - twin.memory_bytes();
  EXPECT_GE(added, 64 * kValue + ranges.size() * (4 * kValue + 8));
  EXPECT_LE(added, 64 * kValue + ranges.size() * (4 * kValue + 16));
}

TEST(MemoryShapeTest, SlickDequeNonInvBestCaseIsConstant) {
  // Ascending input: every arrival evicts the whole deque (§4.2 "best case
  // ... constant").
  core::SlickDequeNonInv<ops::Max> agg(1 << 20);
  for (std::size_t i = 0; i < 100000; ++i) {
    agg.slide(static_cast<double>(i));
  }
  EXPECT_EQ(agg.node_count(), 1u);
  EXPECT_LE(agg.memory_bytes(), 4096u);
}

TEST(MemoryShapeTest, MemoryGrowsMonotonicallyWithWindow) {
  std::size_t prev = 0;
  for (std::size_t n : {64, 256, 1024, 4096}) {
    const std::size_t bytes = FilledFootprint<window::NaiveWindow<ops::Sum>>(n);
    EXPECT_GT(bytes, prev);
    prev = bytes;
  }
}

}  // namespace
}  // namespace slick
