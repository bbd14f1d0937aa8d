// Oracle-driven validation of the dynamically sized FIFO aggregators:
// TwoStacks, DABA, SubtractOnEvict and SlickDeque (Non-Inv)'s FIFO face
// (the former MonotonicDeque, whose test names stay), under steady sliding,
// growth/shrink phases and randomized insert/evict interleavings. DABA's
// region invariants are additionally brute-force checked after every event.

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_noninv.h"
#include "core/sliding_aggregator.h"
#include "core/subtract_on_evict.h"
#include "ops/kernels.h"
#include "ops/ops.h"
#include "util/rng.h"
#include "window/daba.h"
#include "window/reference.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

using ::slick::core::SlickDequeNonInv;
using ::slick::core::SubtractOnEvict;
using ::slick::window::Daba;
using ::slick::window::ReferenceAggregator;
using ::slick::window::TwoStacks;

template <typename Op>
typename Op::value_type MakeValue(int64_t v) {
  if constexpr (std::is_same_v<typename Op::input_type, std::string>) {
    return Op::lift(std::string(1, static_cast<char>('a' + ((v % 26) + 26) % 26)));
  } else {
    return Op::lift(static_cast<typename Op::input_type>(v));
  }
}

template <typename Agg>
void MaybeCheckInvariants(const Agg& agg) {
  if constexpr (requires { agg.CheckInvariants(); }) {
    ASSERT_TRUE(agg.CheckInvariants());
  }
}

/// Steady sliding: fill to `window`, then insert+evict for several laps.
/// With `exact_capacity`, a bulk insert and evict of `window` elements
/// first sizes TwoStacks' buffer to exactly the window, so the per-tuple
/// regions and flips wrap its seam at every offset.
template <typename Agg>
void RunSteadyWindow(std::size_t window, uint64_t seed,
                     bool exact_capacity = false) {
  using Op = typename Agg::op_type;
  Agg agg;
  ReferenceAggregator<Op> ref;
  util::SplitMix64 rng(seed);
  if (exact_capacity) {
    const std::vector<typename Op::value_type> fill(window, Op::identity());
    agg.BulkInsert(fill.data(), window);
    agg.BulkEvict(window);
  }
  const std::size_t total = 6 * window + 24;
  for (std::size_t i = 0; i < total; ++i) {
    const auto v =
        MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000);
    if (agg.size() == window) {
      agg.evict();
      ref.evict();
      MaybeCheckInvariants(agg);
    }
    agg.insert(v);
    ref.insert(v);
    MaybeCheckInvariants(agg);
    ASSERT_EQ(agg.query(), ref.query())
        << "window=" << window << " event=" << i;
    ASSERT_EQ(agg.size(), ref.size());
  }
  if constexpr (requires { agg.capacity(); }) {
    if (exact_capacity) {
      ASSERT_EQ(agg.capacity(), window);
    }
  }
}

/// Randomized interleaving: grow-biased then shrink-biased phases.
template <typename Agg>
void RunRandomInterleaving(uint64_t seed, std::size_t events = 4000) {
  using Op = typename Agg::op_type;
  Agg agg;
  ReferenceAggregator<Op> ref;
  util::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < events; ++i) {
    // Alternate bias every 500 events so the window both balloons and drains.
    const bool grow_bias = (i / 500) % 2 == 0;
    const uint64_t p = rng.NextBounded(100);
    const bool do_insert = ref.size() == 0 || (grow_bias ? p < 70 : p < 30);
    if (do_insert) {
      const auto v =
          MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000);
      agg.insert(v);
      ref.insert(v);
    } else {
      agg.evict();
      ref.evict();
    }
    MaybeCheckInvariants(agg);
    ASSERT_EQ(agg.query(), ref.query()) << "event=" << i;
    ASSERT_EQ(agg.size(), ref.size());
  }
}

/// Randomized bulk batches: BulkInsert/BulkEvict of random sizes against
/// the per-element reference, checked after every batch. Exercises the
/// vectorized flip (partial and full) and the bulk prefix chain at every
/// batch/stack-size remainder, at both the scalar and the widest compiled
/// kernel dispatch level. A nonzero `window` bounds the live size: the
/// aggregator is first filled to exactly `window` elements and every later
/// batch fits the remaining room, so TwoStacks keeps its exactly sized
/// buffer and its regions (and flips) cross the buffer's wrap seam at
/// every offset.
template <typename Agg>
void RunBulkBatches(uint64_t seed, std::size_t max_batch = 97,
                    std::size_t window = 0) {
  using Op = typename Agg::op_type;
  for (const auto level :
       {ops::kernels::SimdLevel::kScalar, ops::kernels::DetectSimdLevel()}) {
    ops::kernels::SetSimdLevel(level);
    Agg agg;
    ReferenceAggregator<Op> ref;
    util::SplitMix64 rng(seed);
    std::vector<typename Op::value_type> batch;
    for (std::size_t i = 0; i < window; ++i) {
      batch.push_back(
          MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000));
      ref.insert(batch.back());
    }
    agg.BulkInsert(batch.data(), window);
    for (std::size_t step = 0; step < 300; ++step) {
      batch.clear();
      const std::size_t room =
          window == 0 ? max_batch : std::min(max_batch, window - ref.size());
      const std::size_t m = rng.NextBounded(room + 1);
      for (std::size_t i = 0; i < m; ++i) {
        batch.push_back(
            MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000));
        ref.insert(batch.back());
      }
      agg.BulkInsert(batch.data(), m);
      ASSERT_EQ(agg.query(), ref.query()) << "step=" << step << " m=" << m;
      const std::size_t e = rng.NextBounded(ref.size() + 1);
      agg.BulkEvict(e);
      for (std::size_t i = 0; i < e; ++i) ref.evict();
      ASSERT_EQ(agg.query(), ref.query()) << "step=" << step << " e=" << e;
      ASSERT_EQ(agg.size(), ref.size());
    }
    if constexpr (requires { agg.capacity(); }) {
      if (window > 0) {
        ASSERT_EQ(agg.capacity(), window);
      }
    }
  }
  ops::kernels::SetSimdLevel(ops::kernels::DetectSimdLevel());
}

/// Drain to empty repeatedly — stresses flip/reset edge cases.
template <typename Agg>
void RunDrainCycles(uint64_t seed) {
  using Op = typename Agg::op_type;
  Agg agg;
  ReferenceAggregator<Op> ref;
  util::SplitMix64 rng(seed);
  for (int cycle = 0; cycle < 12; ++cycle) {
    const std::size_t n = 1 + rng.NextBounded(33);
    for (std::size_t i = 0; i < n; ++i) {
      const auto v =
          MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000);
      agg.insert(v);
      ref.insert(v);
      MaybeCheckInvariants(agg);
      ASSERT_EQ(agg.query(), ref.query());
    }
    while (ref.size() > 0) {
      agg.evict();
      ref.evict();
      MaybeCheckInvariants(agg);
      ASSERT_EQ(agg.query(), ref.query());
    }
  }
}

class FifoWindowSweep : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Windows, FifoWindowSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16,
                                           21, 32, 40, 64, 100, 130),
                         [](const auto& tpi) {
                           std::string name("w");
                           name += std::to_string(tpi.param);
                           return name;
                         });

// --------------------------- TwoStacks ------------------------------------

TEST_P(FifoWindowSweep, TwoStacksSum) {
  RunSteadyWindow<TwoStacks<ops::SumInt>>(GetParam(), 1);
}
TEST_P(FifoWindowSweep, TwoStacksMax) {
  RunSteadyWindow<TwoStacks<ops::MaxInt>>(GetParam(), 2);
}
TEST_P(FifoWindowSweep, TwoStacksConcat) {
  RunSteadyWindow<TwoStacks<ops::Concat>>(GetParam(), 3);
}

TEST(TwoStacksTest, RandomInterleaving) {
  RunRandomInterleaving<TwoStacks<ops::SumInt>>(11);
  RunRandomInterleaving<TwoStacks<ops::Concat>>(12);
}
TEST(TwoStacksTest, DrainCycles) { RunDrainCycles<TwoStacks<ops::SumInt>>(13); }
TEST(TwoStacksTest, BulkBatchesMatchReference) {
  RunBulkBatches<TwoStacks<ops::SumInt>>(14);
  RunBulkBatches<TwoStacks<ops::MaxInt>>(15);
  RunBulkBatches<TwoStacks<ops::MinInt>>(16);
  RunBulkBatches<TwoStacks<ops::Sum>>(17);
  RunBulkBatches<TwoStacks<ops::Concat>>(18);  // generic (non-kernel) scans
}

/// Drives the buffer (capacity 8, pinned by the first bulk insert) until
/// the front region wraps the seam with the back region non-empty, then
/// inserts past capacity: growth must re-linearize both regions in stream
/// order, moving the non-trivial Concat values.
template <typename Op>
void RunGrowthFromWrappedFront(uint64_t seed) {
  TwoStacks<Op> agg;
  ReferenceAggregator<Op> ref;
  util::SplitMix64 rng(seed);
  std::vector<typename Op::value_type> batch;
  const auto insert = [&](std::size_t m) {
    batch.clear();
    for (std::size_t i = 0; i < m; ++i) {
      batch.push_back(
          MakeValue<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000));
      ref.insert(batch.back());
    }
    agg.BulkInsert(batch.data(), m);
    ASSERT_EQ(agg.query(), ref.query());
  };
  const auto evict = [&](std::size_t m) {
    for (std::size_t i = 0; i < m; ++i) {
      agg.evict();
      ref.evict();
      ASSERT_EQ(agg.query(), ref.query());
    }
  };
  // Slots 0..7: the first flip fills the front, which drains to empty at
  // slot 0; back [0,6) flips to front [1,6); back [6,8)+[0,1) flips
  // across the seam to front [7,8)+[0,1); back [1,3). The next four
  // inserts fill the buffer and the fifth grows it.
  insert(8);
  evict(8);
  insert(6);
  evict(1);
  insert(3);
  evict(6);
  insert(2);
  ASSERT_EQ(agg.capacity(), 8u);
  ASSERT_EQ(agg.size(), 4u);
  for (int i = 0; i < 40; ++i) {
    agg.insert(batch.emplace_back(MakeValue<Op>(i)));
    ref.insert(batch.back());
    ASSERT_EQ(agg.query(), ref.query()) << "i=" << i;
  }
  EXPECT_GE(agg.capacity(), agg.size());
  insert(100);  // bulk growth
  evict(ref.size());
}

TEST(TwoStacksTest, GrowsPastCapacityWithFrontAcrossWrapSeam) {
  RunGrowthFromWrappedFront<ops::SumInt>(19);
  RunGrowthFromWrappedFront<ops::MaxInt>(20);
  RunGrowthFromWrappedFront<ops::Concat>(21);
}

// TwoStacks held at an exact capacity: its buffer is sized to the window
// once and never grows, so every per-tuple and bulk step — flips
// included — meets the buffer's wrap seam at some offset. The bulk
// inputs run at the scalar and at the detected SIMD level.
class RingSweep : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Windows, RingSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 64, 100),
                         [](const auto& tpi) {
                           std::string name("w");
                           name += std::to_string(tpi.param);
                           return name;
                         });

TEST_P(RingSweep, SumMatchesOracle) {
  RunSteadyWindow<TwoStacks<ops::SumInt>>(GetParam(), 3, true);
}
TEST_P(RingSweep, MaxMatchesOracle) {
  RunSteadyWindow<TwoStacks<ops::MaxInt>>(GetParam(), 4, true);
}
TEST_P(RingSweep, ConcatKeepsStreamOrder) {
  RunSteadyWindow<TwoStacks<ops::Concat>>(GetParam(), 5, true);
}
TEST_P(RingSweep, BulkSumMatchesOracle) {
  RunBulkBatches<TwoStacks<ops::SumInt>>(7, GetParam(), GetParam());
}
TEST_P(RingSweep, BulkMaxMatchesOracle) {
  RunBulkBatches<TwoStacks<ops::MaxInt>>(8, GetParam(), GetParam());
}
TEST_P(RingSweep, BulkMinMatchesOracle) {
  RunBulkBatches<TwoStacks<ops::MinInt>>(9, GetParam(), GetParam());
}
TEST_P(RingSweep, BulkSumDoubleMatchesOracle) {
  RunBulkBatches<TwoStacks<ops::Sum>>(10, GetParam(), GetParam());
}
TEST_P(RingSweep, BulkConcatKeepsStreamOrder) {
  RunBulkBatches<TwoStacks<ops::Concat>>(11, GetParam(), GetParam());
}

TEST(TwoStacksRingTest, MemoryIsExactlyCapacity) {
  // A bulk fill of the window sizes the buffer to exactly 2n values —
  // capacity entries of (val, agg) — and steady sliding, flips included,
  // never regrows it.
  TwoStacks<ops::Sum> ring;
  const std::vector<double> fill(1024, 0.0);
  ring.BulkInsert(fill.data(), fill.size());
  EXPECT_EQ(ring.capacity(), 1024u);
  EXPECT_EQ(ring.memory_bytes(), sizeof(ring) + 1024 * 2 * sizeof(double));
  for (int i = 0; i < 5000; ++i) {
    if (ring.size() == 1024) ring.evict();
    ring.insert(static_cast<double>(i));
  }
  EXPECT_EQ(ring.capacity(), 1024u);
  EXPECT_EQ(ring.memory_bytes(), sizeof(ring) + 1024 * 2 * sizeof(double));
}

// --------------------------- DABA ------------------------------------------

TEST_P(FifoWindowSweep, DabaSum) {
  RunSteadyWindow<Daba<ops::SumInt>>(GetParam(), 4);
}
TEST_P(FifoWindowSweep, DabaMax) {
  RunSteadyWindow<Daba<ops::MaxInt>>(GetParam(), 5);
}
TEST_P(FifoWindowSweep, DabaConcat) {
  RunSteadyWindow<Daba<ops::Concat>>(GetParam(), 6);
}

TEST(DabaTest, RandomInterleaving) {
  RunRandomInterleaving<Daba<ops::SumInt>>(21);
  RunRandomInterleaving<Daba<ops::Concat>>(22);
}
TEST(DabaTest, DrainCycles) { RunDrainCycles<Daba<ops::SumInt>>(23); }

TEST(DabaTest, RingGrowsAcrossWrapThenShrinks) {
  // Two inserts per evict grow the window from 1 to 200 while the ring's
  // head moves off slot 0, so every growth unwraps a wrapped ring; then
  // two evicts per insert shrink it to 17, and it slides there.
  Daba<ops::SumInt> agg;
  ReferenceAggregator<ops::SumInt> ref;
  util::SplitMix64 rng(31);
  auto insert = [&] {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    agg.insert(v);
    ref.insert(v);
  };
  auto evict = [&] {
    agg.evict();
    ref.evict();
  };
  auto check = [&] {
    ASSERT_TRUE(agg.CheckInvariants());
    ASSERT_EQ(agg.query(), ref.query());
  };
  insert();
  while (ref.size() < 200) {
    insert();
    ASSERT_NO_FATAL_FAILURE(check());
    insert();
    ASSERT_NO_FATAL_FAILURE(check());
    evict();
    ASSERT_NO_FATAL_FAILURE(check());
  }
  while (ref.size() > 17) {
    evict();
    ASSERT_NO_FATAL_FAILURE(check());
    evict();
    ASSERT_NO_FATAL_FAILURE(check());
    insert();
    ASSERT_NO_FATAL_FAILURE(check());
  }
  for (int i = 0; i < 500; ++i) {
    evict();
    insert();
    ASSERT_NO_FATAL_FAILURE(check());
  }
}

// --------------------------- SubtractOnEvict -------------------------------

TEST_P(FifoWindowSweep, SubtractOnEvictSum) {
  RunSteadyWindow<SubtractOnEvict<ops::SumInt>>(GetParam(), 7);
}
TEST(SubtractOnEvictTest, RandomInterleaving) {
  RunRandomInterleaving<SubtractOnEvict<ops::SumInt>>(41);
}
TEST(SubtractOnEvictTest, DrainCycles) {
  RunDrainCycles<SubtractOnEvict<ops::SumInt>>(42);
}
TEST(SubtractOnEvictTest, AverageOp) {
  SubtractOnEvict<ops::Average> agg;
  agg.insert(ops::Average::lift(2.0));
  agg.insert(ops::Average::lift(4.0));
  EXPECT_DOUBLE_EQ(agg.query(), 3.0);
  agg.evict();
  EXPECT_DOUBLE_EQ(agg.query(), 4.0);
}

// ------------- SlickDeque (Non-Inv) FIFO face (MonotonicDeque) -------------

TEST_P(FifoWindowSweep, MonotonicDequeMax) {
  RunSteadyWindow<SlickDequeNonInv<ops::MaxInt>>(GetParam(), 8);
}
TEST(MonotonicDequeTest, RandomInterleaving) {
  RunRandomInterleaving<SlickDequeNonInv<ops::MaxInt>>(51);
}
TEST(MonotonicDequeTest, DrainCycles) {
  RunDrainCycles<SlickDequeNonInv<ops::MaxInt>>(52);
}
TEST(MonotonicDequeTest, NodeCountCollapsesOnAscending) {
  SlickDequeNonInv<ops::MaxInt> agg;
  for (int64_t v = 0; v < 100; ++v) {
    if (agg.size() == 16) agg.evict();
    agg.insert(v);
    EXPECT_EQ(agg.node_count(), 1u);
  }
}
TEST(MonotonicDequeTest, EmptyQueryReturnsIdentity) {
  SlickDequeNonInv<ops::MaxInt> agg;
  EXPECT_EQ(agg.query(), ops::MaxInt::identity());
}

// --------------------------- Facade dispatch -------------------------------

TEST(SlidingAggregatorTest, DispatchFollowsTraits) {
  static_assert(std::is_same_v<core::FifoAggregatorFor<ops::Sum>,
                               SubtractOnEvict<ops::Sum>>);
  static_assert(std::is_same_v<core::FifoAggregatorFor<ops::Average>,
                               SubtractOnEvict<ops::Average>>);
  static_assert(std::is_same_v<core::FifoAggregatorFor<ops::Max>,
                               SlickDequeNonInv<ops::Max>>);
  static_assert(std::is_same_v<core::FifoAggregatorFor<ops::AlphaMax>,
                               SlickDequeNonInv<ops::AlphaMax>>);
  static_assert(
      std::is_same_v<core::FifoAggregatorFor<ops::Concat>, Daba<ops::Concat>>);

  static_assert(std::is_same_v<core::WindowAggregatorFor<ops::Sum>,
                               core::SlickDequeInv<ops::Sum>>);
  static_assert(std::is_same_v<core::WindowAggregatorFor<ops::Max>,
                               core::SlickDequeNonInv<ops::Max>>);
  static_assert(std::is_same_v<core::WindowAggregatorFor<ops::Concat>,
                               core::Windowed<Daba<ops::Concat>>>);
  SUCCEED();
}

TEST(SlidingAggregatorTest, FacadeTypesRunEndToEnd) {
  core::FifoAggregatorFor<ops::Sum> sum;
  core::FifoAggregatorFor<ops::Max> max;
  core::FifoAggregatorFor<ops::Concat> concat;
  for (int i = 1; i <= 5; ++i) {
    sum.insert(ops::Sum::lift(i));
    max.insert(ops::Max::lift(i));
    concat.insert(ops::Concat::lift(std::string(1, static_cast<char>('a' + i))));
  }
  EXPECT_DOUBLE_EQ(sum.query(), 15.0);
  EXPECT_DOUBLE_EQ(max.query(), 5.0);
  EXPECT_EQ(concat.query(), "bcdef");
  sum.evict();
  max.evict();
  concat.evict();
  EXPECT_DOUBLE_EQ(sum.query(), 14.0);
  EXPECT_DOUBLE_EQ(max.query(), 5.0);
  EXPECT_EQ(concat.query(), "cdef");
}

}  // namespace
}  // namespace slick
