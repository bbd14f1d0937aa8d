// Compile-and-smoke test for the umbrella header: one include must expose
// the whole public API.

#include "slickdeque.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaHeaderTest, ExposesTheApi) {
  slick::core::WindowAggregatorFor<slick::ops::Sum> sum(8);
  slick::core::WindowAggregatorFor<slick::ops::Max> max(8);
  slick::engine::TimeEngineFor<slick::ops::Sum> timed({{20, 10}},
                                                      slick::plan::Pat::kPairs);
  slick::core::PerQueryAdapter<slick::window::TwoStacks<slick::ops::Max>>
      ranged(8, {4, 8});
  slick::window::TwoStacks<slick::ops::SumInt> stacks;

  for (int i = 1; i <= 8; ++i) {
    sum.slide(static_cast<double>(i));
    max.slide(static_cast<double>(i));
    ranged.slide(static_cast<double>(9 - i));
    stacks.insert(i);
  }
  EXPECT_DOUBLE_EQ(sum.query(), 36.0);
  EXPECT_DOUBLE_EQ(max.query(), 8.0);
  EXPECT_DOUBLE_EQ(ranged.query(4), 4.0);
  EXPECT_DOUBLE_EQ(ranged.query(8), 8.0);
  EXPECT_EQ(stacks.query(), 36);
  timed.Observe(5, 1.0, [](uint32_t, double) {});
}

}  // namespace
