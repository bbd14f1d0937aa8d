// Tests for the single-buffer TwoStacksRing: per-tuple and bulk paths
// against the exact reference, plus its memory and capacity contract.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/windowed.h"
#include "ops/arith.h"
#include "ops/kernels.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "util/rng.h"
#include "window/naive.h"
#include "window/reference.h"
#include "window/two_stacks_ring.h"

namespace slick {
namespace {

template <typename Op>
void RunRingOracle(std::size_t window, uint64_t seed) {
  window::TwoStacksRing<Op> ring(window);
  window::ReferenceAggregator<Op> ref;
  util::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < 5 * window + 23; ++i) {
    if (ring.size() == window) {
      ring.evict();
      ref.evict();
    }
    typename Op::value_type v;
    if constexpr (std::is_same_v<typename Op::input_type, std::string>) {
      v = Op::lift(std::string(1, static_cast<char>('a' + rng.NextBounded(26))));
    } else {
      v = Op::lift(static_cast<typename Op::input_type>(
          static_cast<int64_t>(rng.NextBounded(100000))));
    }
    ring.insert(v);
    ref.insert(v);
    ASSERT_EQ(ring.query(), ref.query()) << "window=" << window << " i=" << i;
  }
}

class RingSweep : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Windows, RingSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 64, 100),
                         [](const auto& tpi) {
                           std::string name("w");
                           name += std::to_string(tpi.param);
                           return name;
                         });

TEST_P(RingSweep, SumMatchesOracle) {
  RunRingOracle<ops::SumInt>(GetParam(), 3);
}
TEST_P(RingSweep, MaxMatchesOracle) {
  RunRingOracle<ops::MaxInt>(GetParam(), 4);
}
TEST_P(RingSweep, ConcatKeepsStreamOrder) {
  RunRingOracle<ops::Concat>(GetParam(), 5);
}

// Bulk-path oracle: random BulkInsert batches (bounded by remaining
// capacity) interleaved with random BulkEvicts, driven once with the
// scalar kernels and once with the best detected SIMD level so the
// vectorized carry-scans — including flips whose front region spans the
// ring's wrap seam — are checked against the exact reference.
template <typename Op>
void RunRingBulkOracle(std::size_t window, uint64_t seed) {
  for (const auto level :
       {ops::kernels::SimdLevel::kScalar, ops::kernels::DetectSimdLevel()}) {
    ops::kernels::SetSimdLevel(level);
    window::TwoStacksRing<Op> ring(window);
    window::ReferenceAggregator<Op> ref;
    util::SplitMix64 rng(seed);
    std::vector<typename Op::value_type> batch;
    for (std::size_t step = 0; step < 400; ++step) {
      batch.clear();
      const std::size_t room = window - ring.size();
      const std::size_t m = rng.NextBounded(room + 1);
      for (std::size_t i = 0; i < m; ++i) {
        typename Op::value_type v;
        if constexpr (std::is_same_v<typename Op::input_type, std::string>) {
          v = Op::lift(
              std::string(1, static_cast<char>('a' + rng.NextBounded(26))));
        } else {
          v = Op::lift(static_cast<typename Op::input_type>(
              static_cast<int64_t>(rng.NextBounded(2001)) - 1000));
        }
        batch.push_back(v);
        ref.insert(v);
      }
      ring.BulkInsert(batch.data(), m);
      ASSERT_EQ(ring.size(), ref.size());
      if (ring.size() > 0) {
        ASSERT_EQ(ring.query(), ref.query())
            << "window=" << window << " step=" << step << " m=" << m;
      }
      const std::size_t e = rng.NextBounded(ref.size() + 1);
      ring.BulkEvict(e);
      for (std::size_t i = 0; i < e; ++i) ref.evict();
      ASSERT_EQ(ring.size(), ref.size());
      if (ring.size() > 0) {
        ASSERT_EQ(ring.query(), ref.query())
            << "window=" << window << " step=" << step << " e=" << e;
      }
    }
  }
  ops::kernels::SetSimdLevel(ops::kernels::DetectSimdLevel());
}

TEST_P(RingSweep, BulkSumMatchesOracle) {
  RunRingBulkOracle<ops::SumInt>(GetParam(), 7);
}
TEST_P(RingSweep, BulkMaxMatchesOracle) {
  RunRingBulkOracle<ops::MaxInt>(GetParam(), 8);
}
TEST_P(RingSweep, BulkMinMatchesOracle) {
  RunRingBulkOracle<ops::MinInt>(GetParam(), 9);
}
TEST_P(RingSweep, BulkSumDoubleMatchesOracle) {
  RunRingBulkOracle<ops::Sum>(GetParam(), 10);
}
TEST_P(RingSweep, BulkConcatKeepsStreamOrder) {
  RunRingBulkOracle<ops::Concat>(GetParam(), 11);
}

TEST(TwoStacksRingTest, MemoryIsExactlyCapacity) {
  window::TwoStacksRing<ops::Sum> ring(1024);
  // 2n values: capacity entries of (val, agg).
  EXPECT_EQ(ring.memory_bytes(),
            sizeof(ring) + 1024 * 2 * sizeof(double));
  for (int i = 0; i < 5000; ++i) {
    if (ring.size() == 1024) ring.evict();
    ring.insert(static_cast<double>(i));
  }
  EXPECT_EQ(ring.memory_bytes(), sizeof(ring) + 1024 * 2 * sizeof(double));
}

TEST(TwoStacksRingTest, OverflowDies) {
  window::TwoStacksRing<ops::Sum> ring(2);
  ring.insert(1.0);
  ring.insert(2.0);
  EXPECT_DEATH(ring.insert(3.0), "capacity exceeded");
}

TEST(TwoStacksRingTest, WindowedAdapterWorks) {
  core::Windowed<window::TwoStacksRing<ops::SumInt>> win(16, 16);
  window::NaiveWindow<ops::SumInt> naive(16);
  util::SplitMix64 rng(6);
  for (int i = 0; i < 100; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    win.slide(v);
    naive.slide(v);
    ASSERT_EQ(win.query(), naive.query());
  }
}

}  // namespace
}  // namespace slick
