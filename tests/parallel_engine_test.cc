// Differential concurrency tests for the parallel sharded runtime: the
// same synthetic streams (stream/synthetic.h) are fed through
// ParallelShardedEngine and a single-window NaiveWindow oracle, and the
// answers must agree at every epoch (slide barrier). The CI ThreadSanitizer job runs this file to
// machine-check the runtime's ring protocol and epoch-snapshot handshake.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "runtime/shm/shm_ring.h"
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

// Caller-runs barrier and coalesced router wakes (DESIGN.md §12). The
// router's batches below half a ring wake nobody; query() drains them on
// the calling thread and must still answer exactly.
using SumEngine =
    runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>>;

/// Polls `stats().processed` (no query) until it reaches `want` or the
/// deadline passes; returns the last value read.
template <typename Engine>
uint64_t AwaitProcessed(const Engine& eng, uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t got = eng.stats().processed;
  while (got < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = eng.stats().processed;
  }
  return got;
}

TEST(ParallelEngineTest, BelowHalfRingBacklogIsDrainedByQuery) {
  SumEngine eng(64, 2, {.ring_capacity = 1024, .batch = 16});
  window::NaiveWindow<ops::SumInt> oracle(64);
  int64_t next = 1;
  // Each round stays far below half a ring per shard (256 < 512).
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 256; ++i, ++next) {
      eng.push(next);
      oracle.slide(next);
    }
    ASSERT_EQ(eng.query(), oracle.query()) << "round " << round;
    const auto stats = eng.stats();
    ASSERT_EQ(stats.processed, stats.admitted) << "round " << round;
    ASSERT_EQ(stats.processed, static_cast<uint64_t>(next - 1));
  }
  const telemetry::RuntimeSnapshot snap = eng.snapshot();
  for (const auto& shard : snap.shards) {
    EXPECT_LE(shard.coordinator_batches, shard.batches);
  }
}

TEST(ParallelEngineTest, BelowHalfRingBacklogIsDrainedByStop) {
  SumEngine eng(64, 2, {.ring_capacity = 1024, .batch = 16});
  for (int64_t i = 0; i < 300; ++i) eng.push(i);
  eng.stop();
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted, 300u);
  EXPECT_EQ(stats.processed, 300u);
  EXPECT_EQ(eng.snapshot().total_in_flight(), 0u);
}

TEST(ParallelEngineTest, HalfRingBacklogIsProcessedWithoutQuery) {
  SumEngine eng(8, 2, {.ring_capacity = 64, .batch = 8});
  // Half a ring per shard: the publish that reaches it wakes the worker.
  for (int64_t i = 0; i < 64; ++i) eng.push(i);
  eng.flush();
  EXPECT_EQ(AwaitProcessed(eng, 64), 64u);
}

TEST(ParallelEngineTest, ProducerHandlePushesAreProcessedWithoutQuery) {
  runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>,
                                 runtime::MpmcRing>
      eng(8, 2, {.ring_capacity = 1024, .batch = 8});
  {
    auto producer = eng.MakeProducer();
    // Far below half a ring: the handle drains each shard itself or wakes
    // its worker; no query() follows.
    for (int64_t i = 0; i < 20; ++i) producer.push(i);
  }  // destroyed: flushed
  EXPECT_EQ(AwaitProcessed(eng, 20), 20u);
  EXPECT_EQ(eng.snapshot().shards[0].coordinator_batches, 0u);
}

// Producer-runs admission (DESIGN.md §12.6): a producer handle of an
// unsupervised MPMC engine settles each batch before its flush returns —
// drained on its own thread while the shard's worker sleeps, or left to a
// woken worker — so its tuples are processed without a query().
using MpmcSumEngine =
    runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>,
                                   runtime::MpmcRing>;

template <typename Engine>
uint64_t ProducerBatches(const Engine& eng) {
  uint64_t n = 0;
  for (const auto& shard : eng.snapshot().shards) n += shard.producer_batches;
  return n;
}

/// Sparse rounds through one producer handle: a few tuples per shard, a
/// flush, then a pause long enough for idle workers to park. Each round's
/// tuples must be processed without a query(). Runs at least `min_rounds`,
/// and on (until a deadline) while `more` holds.
template <typename Engine, typename More>
void SparseProducerRounds(Engine& eng, typename Engine::Producer& producer,
                          window::NaiveWindow<ops::SumInt>& oracle,
                          int min_rounds, More more) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int64_t next = 1;
  for (int round = 0;
       round < min_rounds ||
       (more() && std::chrono::steady_clock::now() < deadline);
       ++round) {
    for (int i = 0; i < 6; ++i, ++next) {
      producer.push(next);
      oracle.slide(next);
    }
    producer.flush();
    const auto want = static_cast<uint64_t>(next - 1);
    ASSERT_EQ(AwaitProcessed(eng, want), want) << "round " << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ParallelEngineTest, ProducerRunsSparsePushesUnderEveryPolicy) {
  for (const runtime::Backpressure bp :
       {runtime::Backpressure::kBlock, runtime::Backpressure::kDropNewest}) {
    SCOPED_TRACE(runtime::BackpressureName(bp));
    MpmcSumEngine eng(16, 2,
                      {.ring_capacity = 1024, .batch = 8, .backpressure = bp});
    window::NaiveWindow<ops::SumInt> oracle(16);
    {
      auto producer = eng.MakeProducer();
      SparseProducerRounds(eng, producer, oracle, 20,
                           [&eng] { return ProducerBatches(eng) == 0; });
    }
    EXPECT_GT(ProducerBatches(eng), 0u);
    EXPECT_EQ(eng.stats().dropped, 0u);
    EXPECT_EQ(eng.query(), oracle.query());
    for (const auto& shard : eng.snapshot().shards) {
      EXPECT_LE(shard.producer_batches + shard.coordinator_batches,
                shard.batches);
    }
  }
}

TEST(ParallelEngineTest, SupervisedAndShmProducersNeverDrain) {
  {
    MpmcSumEngine eng(
        16, 2,
        {.ring_capacity = 1024, .batch = 8, .checkpoint_interval = 64});
    window::NaiveWindow<ops::SumInt> oracle(16);
    {
      auto producer = eng.MakeProducer();
      SparseProducerRounds(eng, producer, oracle, 20, [] { return false; });
    }
    EXPECT_EQ(ProducerBatches(eng), 0u);
    EXPECT_EQ(eng.query(), oracle.query());
  }
  {
    runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>,
                                   runtime::ShmRing>
        eng(16, 2, {.ring_capacity = 1024, .batch = 8});
    window::NaiveWindow<ops::SumInt> oracle(16);
    {
      auto producer = eng.MakeProducer();
      SparseProducerRounds(eng, producer, oracle, 20, [] { return false; });
    }
    EXPECT_EQ(ProducerBatches(eng), 0u);
    EXPECT_EQ(eng.query(), oracle.query());
  }
}

/// SumInt whose ⊕ spins for two microseconds: a shard's holder then
/// slides for far longer than a producer takes to publish, which keeps the
/// other producer's ownership CAS failing and a holder's bound reachable.
struct SlowSumInt : ops::SumInt {
  static value_type combine(value_type a, value_type b) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
    return a + b;
  }
};

TEST(ParallelEngineTest, ProducerFlushReturnsWhileAnotherProducerPublishes) {
  // One shard, so both handles publish to the same ring, and both keep
  // publishing until told to stop. Whichever takes the shard drains only
  // the backlog it found, so its flush returns although the other keeps
  // the ring full: both must complete their rounds before the deadline.
  runtime::ParallelShardedEngine<core::SlickDequeInv<SlowSumInt>,
                                 runtime::MpmcRing>
      eng(64, 1, {.ring_capacity = 256, .batch = 64});
  constexpr uint64_t kRounds = 20;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> rounds[2] = {0, 0};
  const auto publish = [&](std::atomic<uint64_t>* done) {
    auto producer = eng.MakeProducer();
    // acquire: pairs with the release store that ends the test.
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 64; ++i) producer.push(1);
      producer.flush();
      // relaxed: a progress tally, polled below and read after join.
      done->fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread a(publish, &rounds[0]);
  std::thread b(publish, &rounds[1]);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // relaxed: see the tally above.
  while ((rounds[0].load(std::memory_order_relaxed) < kRounds ||
          rounds[1].load(std::memory_order_relaxed) < kRounds) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t by_deadline[2] = {rounds[0].load(std::memory_order_relaxed),
                                   rounds[1].load(std::memory_order_relaxed)};
  stop.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_GE(by_deadline[0], kRounds)
      << "a producer's flush was held draining the other's stream";
  EXPECT_GE(by_deadline[1], kRounds)
      << "a producer's flush was held draining the other's stream";
  EXPECT_EQ(eng.query(), 64);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.processed, stats.admitted);
  EXPECT_EQ(stats.admitted, 64u * (rounds[0].load(std::memory_order_relaxed) +
                                   rounds[1].load(std::memory_order_relaxed)));
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
