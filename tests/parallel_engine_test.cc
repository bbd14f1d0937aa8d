// Differential concurrency tests for the parallel sharded runtime: the
// same synthetic streams (stream/synthetic.h) are fed through
// ParallelShardedEngine and a single-window NaiveWindow oracle, and the
// answers must agree at every epoch (slide barrier). The CI ThreadSanitizer job runs this file to
// machine-check the runtime's ring protocol and epoch-snapshot handshake.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "runtime/parallel_engine.h"
#include "stream/synthetic.h"
#include "window/naive.h"

namespace slick {
namespace {

/// The synthetic energy stream quantized to exact integers so the two
/// implementations can be compared with == (no float fold-order slack).
std::vector<int64_t> IntStream(std::size_t count, uint64_t seed) {
  stream::SyntheticSensorSource src(seed);
  const std::vector<double> energy = src.MakeEnergySeries(count, 0);
  std::vector<int64_t> out;
  out.reserve(count);
  for (double v : energy) out.push_back(static_cast<int64_t>(v * 1024.0));
  return out;
}

/// Feeds the stream tuple-by-tuple into both implementations and
/// asserts identical answers at every slide barrier past warm-up. Small
/// ring/batch options force the runtime through its staging, backpressure
/// and parking paths rather than the fast path only.
template <typename Agg>
void RunDifferential(std::size_t window, std::size_t shards, uint64_t seed) {
  using Op = typename Agg::op_type;
  runtime::ParallelShardedEngine<Agg> parallel(
      window, shards,
      {.ring_capacity = 16, .batch = 3,
       .backpressure = runtime::Backpressure::kBlock});
  window::NaiveWindow<Op> oracle(window);

  const std::vector<int64_t> stream = IntStream(4 * window + 7 * shards, seed);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto v = Op::lift(stream[i]);
    parallel.push(v);
    oracle.slide(v);
    if ((i + 1) % shards == 0 && i + 1 >= window) {
      ASSERT_EQ(parallel.query(), oracle.query())
          << "window=" << window << " shards=" << shards << " i=" << i;
    }
  }
  parallel.stop();
  const auto stats = parallel.stats();
  EXPECT_EQ(stats.admitted, stream.size());
  EXPECT_EQ(stats.processed, stream.size());
  EXPECT_EQ(stats.dropped, 0u);
}

class ParallelSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};
INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelSweep,
    ::testing::Values(std::tuple{8, 2}, std::tuple{8, 4}, std::tuple{8, 8},
                      std::tuple{64, 4}, std::tuple{96, 3},
                      std::tuple{128, 8}),
    [](const auto& tpi) {
      std::string name("w");
      name += std::to_string(std::get<0>(tpi.param));
      name += 's';
      name += std::to_string(std::get<1>(tpi.param));
      return name;
    });

TEST_P(ParallelSweep, SumMatchesShardedAndOracle) {
  const auto [w, s] = GetParam();
  RunDifferential<core::SlickDequeInv<ops::SumInt>>(w, s, 11);
}
TEST_P(ParallelSweep, MaxMatchesShardedAndOracle) {
  const auto [w, s] = GetParam();
  RunDifferential<core::SlickDequeNonInv<ops::MaxInt>>(w, s, 12);
}

// Warm-up: ready() flips exactly when every shard's window is full (staged
// elements count — they are admitted, just not yet flushed to the rings).
TEST(ParallelEngineTest, ReadyFlipsAfterGlobalWindow) {
  runtime::ParallelShardedEngine<core::SlickDequeNonInv<ops::MaxInt>> eng(
      8, 4, {.ring_capacity = 16, .batch = 4});
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(eng.ready()) << "i=" << i;
    eng.push(i);
  }
  EXPECT_FALSE(eng.ready());
  eng.push(7);
  EXPECT_TRUE(eng.ready());
  EXPECT_EQ(eng.query(), 7);
}

// Bounded rings with kDropNewest shed instead of blocking; every element
// is either admitted or counted, never silently lost or buffered without
// bound.
TEST(ParallelEngineTest, DropNewestConservesAccounting) {
  runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>> eng(
      8, 2,
      {.ring_capacity = 4, .batch = 1,
       .backpressure = runtime::Backpressure::kDropNewest});
  constexpr uint64_t kPushes = 50000;
  for (uint64_t i = 0; i < kPushes; ++i) eng.push(1);
  eng.flush();
  eng.stop();
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted + stats.dropped, kPushes);
  EXPECT_EQ(stats.processed, stats.admitted);
  EXPECT_GE(stats.admitted, 8u);  // workers drained at least the warm-up
  // Every admitted element had value 1, so the window sums to exactly 8.
  EXPECT_TRUE(eng.ready());
  EXPECT_EQ(eng.query(), 8);
}

// Graceful shutdown drains in-flight elements: nothing admitted is lost,
// and stop() is idempotent (the destructor calls it again).
TEST(ParallelEngineTest, StopDrainsInFlightElements) {
  runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>> eng(
      16, 4, {.ring_capacity = 64, .batch = 8});
  for (int64_t i = 0; i < 10000; ++i) eng.push(i);
  eng.stop();
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted, 10000u);
  EXPECT_EQ(stats.processed, 10000u);
  // Post-shutdown queries still answer from the drained state: the window
  // holds 9984..9999, which sums to 159864.
  EXPECT_EQ(eng.query(), 159864);
}

// Construct/destroy with no traffic must not hang (workers park on empty
// rings and are woken by close()).
TEST(ParallelEngineTest, IdleEngineShutsDownCleanly) {
  runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>> eng(8, 4);
  EXPECT_EQ(eng.shard_count(), 4u);
  EXPECT_FALSE(eng.ready());
}

TEST(ParallelEngineTest, InvalidConfigsDie) {
  // Re-execute rather than fork: earlier tests in this binary ran threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Engine =
      runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>>;
  EXPECT_DEATH(Engine(10, 3), "multiple of the shard count");
  EXPECT_DEATH(Engine(8, 0), "at least one shard");
}

}  // namespace
}  // namespace slick
