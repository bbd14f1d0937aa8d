// Event-time window tests: TimeWindow over every FIFO aggregator against a
// brute-force timestamped oracle, with irregular and bursty arrivals.

#include <cstdint>
#include <deque>
#include <utility>

#include <gtest/gtest.h>

#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "core/time_window.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "util/rng.h"
#include "window/daba.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

using core::TimeWindow;

template <typename Op>
class TimedOracle {
 public:
  explicit TimedOracle(uint64_t range) : range_(range) {}

  void Observe(uint64_t ts, typename Op::value_type v) {
    now_ = ts;
    items_.emplace_back(ts, std::move(v));
  }

  typename Op::result_type Query() {
    const uint64_t cutoff = now_ >= range_ ? now_ - range_ + 1 : 0;
    while (!items_.empty() && items_.front().first < cutoff) {
      items_.pop_front();
    }
    auto acc = Op::identity();
    for (const auto& [ts, v] : items_) acc = Op::combine(acc, v);
    return Op::lower(acc);
  }

  std::size_t Size() {
    (void)Query();
    return items_.size();
  }

 private:
  std::deque<std::pair<uint64_t, typename Op::value_type>> items_;
  uint64_t range_;
  uint64_t now_ = 0;
};

template <typename Agg>
void RunTimedOracle(uint64_t range, uint64_t seed, bool bursty) {
  using Op = typename Agg::op_type;
  TimeWindow<Agg> win(range);
  TimedOracle<Op> oracle(range);
  util::SplitMix64 rng(seed);
  uint64_t ts = 0;
  for (int i = 0; i < 3000; ++i) {
    // Bursty: many elements share a timestamp; sparse: large gaps.
    ts += bursty ? rng.NextBounded(2) : 1 + rng.NextBounded(2 * range);
    const auto v = Op::lift(static_cast<typename Op::input_type>(
        static_cast<int64_t>(rng.NextBounded(1000))));
    win.Observe(ts, v);
    oracle.Observe(ts, v);
    ASSERT_EQ(win.query(), oracle.Query()) << "i=" << i << " ts=" << ts;
    ASSERT_EQ(win.size(), oracle.Size());
  }
}

class TimeRangeSweep : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Ranges, TimeRangeSweep,
                         ::testing::Values(1, 2, 5, 16, 100, 1000),
                         [](const auto& tpi) {
                           std::string name("r");
                           name += std::to_string(tpi.param);
                           return name;
                         });

TEST_P(TimeRangeSweep, SubtractOnEvictSumBursty) {
  RunTimedOracle<core::SubtractOnEvict<ops::SumInt>>(GetParam(), 1, true);
}
TEST_P(TimeRangeSweep, SubtractOnEvictSumSparse) {
  RunTimedOracle<core::SubtractOnEvict<ops::SumInt>>(GetParam(), 2, false);
}
TEST_P(TimeRangeSweep, MonotonicDequeMaxBursty) {
  RunTimedOracle<core::SlickDequeNonInv<ops::MaxInt>>(GetParam(), 3, true);
}
TEST_P(TimeRangeSweep, DabaSumBursty) {
  RunTimedOracle<window::Daba<ops::SumInt>>(GetParam(), 4, true);
}
TEST_P(TimeRangeSweep, TwoStacksMaxSparse) {
  RunTimedOracle<window::TwoStacks<ops::MaxInt>>(GetParam(), 5, false);
}

TEST(TimeWindowTest, AdvanceToExpiresWithoutInsert) {
  TimeWindow<core::SubtractOnEvict<ops::SumInt>> win(10);
  win.Observe(1, 5);
  win.Observe(5, 7);
  EXPECT_EQ(win.query(), 12);
  win.AdvanceTo(11);  // window (1, 11]: ts=1 expires
  EXPECT_EQ(win.query(), 7);
  EXPECT_EQ(win.size(), 1u);
  win.AdvanceTo(20);  // everything expires
  EXPECT_EQ(win.query(), 0);
  EXPECT_EQ(win.size(), 0u);
}

TEST(TimeWindowTest, SameTimestampElementsShareTheWindowEdge) {
  TimeWindow<core::SubtractOnEvict<ops::SumInt>> win(3);
  win.Observe(10, 1);
  win.Observe(10, 2);
  win.Observe(10, 4);
  EXPECT_EQ(win.query(), 7);
  win.Observe(12, 8);  // window (9, 12]: all alive
  EXPECT_EQ(win.query(), 15);
  win.Observe(13, 16);  // window (10, 13]: the three ts=10 expire
  EXPECT_EQ(win.query(), 24);
}

TEST(TimeWindowTest, RejectsRegressingTimestamps) {
  TimeWindow<core::SubtractOnEvict<ops::SumInt>> win(10);
  win.Observe(5, 1);
  EXPECT_DEATH(win.Observe(4, 1), "non-decreasing");
}

TEST(TimeWindowTest, MemoryTracksContent) {
  TimeWindow<core::SlickDequeNonInv<ops::MaxInt>> win(1000);
  const std::size_t before = win.memory_bytes();
  for (uint64_t i = 0; i < 500; ++i) {
    win.Observe(i, static_cast<int64_t>(1000 - i));  // descending: all kept
  }
  EXPECT_GT(win.memory_bytes(), before);
}

}  // namespace
}  // namespace slick
