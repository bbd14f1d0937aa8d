// Tests for the MPMC ingress ring and the engine's direct-producer path
// (DESIGN.md §14): single-thread claim/publish semantics (piecewise and
// out-of-order publishes, wrap capping, close/drain, ResetClaims replay),
// real-thread multi-producer differential fuzz against a per-producer
// sequential oracle, and ParallelShardedEngine<_, MpmcRing> answering
// identically to a serial oracle under concurrent Producer handles,
// blocking backpressure and mid-stream worker kills. The CI
// ThreadSanitizer job runs this file to machine-check the reserve/publish
// memory ordering that the model checker verifies at protocol level.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "util/rng.h"
#include "window/naive.h"

namespace slick {
namespace {

using runtime::MpmcRing;

TEST(MpmcRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcRing<int>(100).capacity(), 128u);
  EXPECT_EQ(MpmcRing<int>(64).capacity(), 64u);
  EXPECT_EQ(MpmcRing<int>(1).capacity(), 2u);
}

TEST(MpmcRingTest, FifoOrderAcrossWraps) {
  MpmcRing<int> ring(8);
  int out[4];
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_push(next_in));
      ++next_in;
    }
    std::size_t n = ring.try_pop_n(out, 3);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], next_out++);
  }
  EXPECT_TRUE(ring.empty());
}

// The defining MPMC behavior: two claims can publish in either order, and
// the consumer only ever sees the *published prefix* — claim B publishing
// first exposes nothing until claim A (earlier position) publishes too.
TEST(MpmcRingTest, OutOfOrderPublishGatesOnThePrefix) {
  MpmcRing<int> ring(8);
  std::size_t na = 0, nb = 0;
  int* a = ring.TryClaimPush(2, &na);
  int* b = ring.TryClaimPush(2, &nb);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(na, 2u);
  ASSERT_EQ(nb, 2u);
  EXPECT_EQ(b, a + 2);  // reservations are disjoint and ordered
  a[0] = 0;
  a[1] = 1;
  b[0] = 2;
  b[1] = 3;
  ring.PublishPush(b, 2);  // later claim publishes FIRST
  int out[4];
  // Position order gates consumption: nothing is poppable yet.
  EXPECT_EQ(ring.try_pop_n(out, 4), 0u);
  EXPECT_EQ(ring.unconsumed(), 4u);  // both reservations count as backlog
  ring.PublishPush(a, 2);
  EXPECT_EQ(ring.try_pop_n(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
}

// A claim may be published piecewise (split into suffix pieces) — the
// consumer sees the prefix grow piece by piece.
TEST(MpmcRingTest, PiecewisePublishGrowsThePrefix) {
  MpmcRing<int> ring(8);
  std::size_t n = 0;
  int* span = ring.TryClaimPush(4, &n);
  ASSERT_EQ(n, 4u);
  std::iota(span, span + 4, 0);
  int out[4];
  ring.PublishPush(span, 1);
  EXPECT_EQ(ring.try_pop_n(out, 4), 1u);
  EXPECT_EQ(out[0], 0);
  ring.PublishPush(span + 1, 2);
  EXPECT_EQ(ring.try_pop_n(out, 4), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  ring.PublishPush(span + 3, 1);
  EXPECT_EQ(ring.try_pop_n(out, 4), 1u);
  EXPECT_EQ(out[0], 3);
}

TEST(MpmcRingTest, ClaimsCapAtTheArrayWrap) {
  MpmcRing<int> ring(8);
  int buf[8];
  std::iota(buf, buf + 8, 0);
  // Advance the cursors so the free span wraps: push 6, pop 6, push 6.
  ASSERT_EQ(ring.try_push_n(buf, 6), 6u);
  int out[8];
  ASSERT_EQ(ring.try_pop_n(out, 6), 6u);
  // Cursor now at 6 of 8: a claim of 5 must cap at the wrap (2 slots)...
  std::size_t n = 0;
  int* span = ring.TryClaimPush(5, &n);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(n, 2u);
  ring.PublishPush(span, n);
  // ...and a second claim continues at the front of the array, where the
  // remaining request fits whole (6 slots are free there).
  std::size_t n2 = 0;
  int* span2 = ring.TryClaimPush(5, &n2);
  ASSERT_NE(span2, nullptr);
  EXPECT_EQ(n2, 5u);
  ring.PublishPush(span2, n2);
}

TEST(MpmcRingTest, BoundedAndPartialBatches) {
  MpmcRing<int> ring(8);
  std::vector<int> src(12);
  std::iota(src.begin(), src.end(), 0);
  EXPECT_EQ(ring.try_push_n(src.data(), 5), 5u);
  EXPECT_EQ(ring.try_push_n(src.data() + 5, 7), 3u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_FALSE(ring.try_push(99));
  int out[16];
  EXPECT_EQ(ring.try_pop_n(out, 16), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.try_pop_n(out, 16), 0u);
}

TEST(MpmcRingTest, CloseDrainsThenSignalsShutdown) {
  MpmcRing<int> ring(8);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.try_push(3));
  int out[4];
  EXPECT_EQ(ring.pop_n(out, 4), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(ring.pop_n(out, 4), 0u);
}

// ResetClaims must make unreleased claims claimable again with their
// original values — the seq protocol never resets publication marks on
// release, which is exactly what makes the replay read published data.
TEST(MpmcRingTest, ResetClaimsReplaysUnreleasedSpans) {
  MpmcRing<int> ring(16);
  std::vector<int> src(8);
  std::iota(src.begin(), src.end(), 100);
  ASSERT_EQ(ring.try_push_n(src.data(), src.size()), src.size());
  std::size_t n1 = 0, n2 = 0;
  int* a = ring.TryClaimPop(3, &n1);
  ASSERT_EQ(n1, 3u);
  ring.ReleasePop(3);  // first span committed
  int* b = ring.TryClaimPop(3, &n2);
  ASSERT_EQ(n2, 3u);
  EXPECT_EQ(b, a + 3);
  EXPECT_EQ(ring.unreleased(), 3u);  // second span claimed, not released
  ring.ResetClaims();
  EXPECT_EQ(ring.unreleased(), 0u);
  // The replay hands back the same values, then continues past them.
  std::size_t n3 = 0;
  int* c = ring.TryClaimPop(8, &n3);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(n3, 5u);
  for (std::size_t i = 0; i < n3; ++i) EXPECT_EQ(c[i], 103 + static_cast<int>(i));
}

// ---------------------------------------------------------------------
// Real-thread differential fuzz: P producers blocking-push tagged
// sequences in randomized batch sizes through a tiny ring (forcing the
// full/empty parking paths); the consumer checks exactly-once delivery
// and per-producer FIFO order against the trivially correct oracle
// "producer p's subsequence reads 0,1,2,...".
// ---------------------------------------------------------------------
TEST(MpmcRingTest, MultiProducerStressKeepsPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int64_t kPerProducer = 50000;
  constexpr int64_t kTag = 1'000'000;
  MpmcRing<int64_t> ring(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      util::SplitMix64 rng(static_cast<uint64_t>(p) + 7);
      std::vector<int64_t> batch;
      int64_t next = 0;
      while (next < kPerProducer) {
        batch.clear();
        const int64_t n = static_cast<int64_t>(rng.NextBounded(37)) + 1;
        for (int64_t i = 0; i < n && next < kPerProducer; ++i) {
          batch.push_back(p * kTag + next++);
        }
        ASSERT_EQ(ring.push_n(batch.data(), batch.size()), batch.size());
      }
    });
  }

  std::thread closer([&producers, &ring] {
    for (auto& t : producers) t.join();
    ring.close();
  });

  std::vector<int64_t> expected(kProducers, 0);
  int64_t total = 0;
  int64_t out[97];
  std::size_t n;
  while ((n = ring.pop_n(out, 97)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const int64_t p = out[i] / kTag;
      const int64_t v = out[i] % kTag;
      ASSERT_GE(p, 0);
      ASSERT_LT(p, kProducers);
      // Exactly-once, in order: each producer's subsequence counts up.
      ASSERT_EQ(v, expected[static_cast<std::size_t>(p)]++);
      ++total;
    }
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(expected[p], kPerProducer);
  closer.join();
}

// ---------------------------------------------------------------------
// Engine over MPMC rings.
// ---------------------------------------------------------------------

// The router-only path must be answer-identical over either ring type:
// same differential harness as parallel_engine_test.cc, instantiated with
// Ring = MpmcRing.
TEST(MpmcEngineTest, RouterPathMatchesOracleOnMpmcRings) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  using Op = Agg::op_type;
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kShards = 4;
  runtime::ParallelShardedEngine<Agg, MpmcRing> parallel(
      kWindow, kShards,
      {.ring_capacity = 16, .batch = 3,
       .backpressure = runtime::Backpressure::kBlock});
  window::NaiveWindow<Op> oracle(kWindow);

  util::SplitMix64 rng(21);
  const std::size_t count = 4 * kWindow + 7 * kShards;
  for (std::size_t i = 0; i < count; ++i) {
    const auto v = Op::lift(static_cast<int64_t>(rng.NextBounded(1000)));
    parallel.push(v);
    oracle.slide(v);
    if ((i + 1) % kShards == 0 && i + 1 >= kWindow) {
      ASSERT_EQ(parallel.query(), oracle.query()) << "i=" << i;
    }
  }
  parallel.stop();
  const auto stats = parallel.stats();
  EXPECT_EQ(stats.admitted, count);
  EXPECT_EQ(stats.processed, count);
  EXPECT_EQ(stats.dropped, 0u);
}

/// Generates producer `p`'s slice of the stream: small integer values.
std::vector<int64_t> ProducerValues(int p, std::size_t n) {
  util::SplitMix64 rng(static_cast<uint64_t>(p) * 97 + 13);
  std::vector<int64_t> values(n);
  for (int64_t& v : values) v = static_cast<int64_t>(rng.NextBounded(1000));
  return values;
}

using SumEngine =
    runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>, MpmcRing>;

/// Drives `kProducers` concurrent Producer handles over an MPMC engine,
/// then checks the answer against a serial oracle over the union of all
/// slices. Each handle round-robins its slice over the shards, so every
/// shard receives an equal share of every slice however the handles
/// interleave. The global window equals the total count, so every shard
/// window holds all of its shard's tuples and query() is the exact total —
/// which is what makes the differential exact. `opt` lets the caller turn
/// on supervision; `kill` arms mid-stream worker fail-stops.
void RunProducerDifferential(SumEngine::Options opt, bool kill) {
  constexpr std::size_t kShards = 4;
  constexpr int kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  constexpr std::size_t kWindow = kProducers * kPerProducer;

  SumEngine eng(kWindow, kShards, opt);
  if (kill) {
    eng.InjectWorkerKill(1, runtime::KillPoint::kAfterSlide, 3);
    eng.InjectWorkerKill(2, runtime::KillPoint::kBeforeSlide, 5);
  }

  std::vector<std::vector<int64_t>> slices;
  slices.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    slices.push_back(ProducerValues(p, kPerProducer));
  }

  std::atomic<int> live{kProducers};
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&eng, &slices, &live, p] {
      SumEngine::Producer prod = eng.MakeProducer();
      for (const int64_t v : slices[static_cast<std::size_t>(p)]) {
        prod.push(v);
      }
      prod.flush();
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  // Coordinator loop: on a supervised engine, a producer blocked on a
  // dead worker's ring stays parked until this thread's poll revives the
  // worker — the quiesce protocol from the Producer contract.
  while (live.load(std::memory_order_acquire) > 0) {
    eng.SupervisePoll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : threads) t.join();

  const int64_t got = eng.query();
  int64_t expected = 0;
  for (const auto& slice : slices) {
    for (const int64_t v : slice) expected += v;
  }
  EXPECT_EQ(got, expected);

  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(stats.processed, stats.admitted);
  EXPECT_EQ(stats.dropped, 0u);
  if (kill) {
    EXPECT_GE(stats.restarts, 2u);
  }
  eng.stop();
}

// Four concurrent producers, tiny rings (blocking backpressure exercises
// the park/wake paths), answers identical to the serial oracle.
TEST(MpmcEngineTest, ConcurrentProducersMatchSerialOracle) {
  RunProducerDifferential(
      {.ring_capacity = 64, .batch = 7,
       .backpressure = runtime::Backpressure::kBlock},
      /*kill=*/false);
}

// Same stream, supervised engine, two workers fail-stopped mid-stream
// while producers are actively feeding their rings: recovery replays the
// unreleased spans and the final answer is still bit-identical.
TEST(MpmcEngineTest, WorkerKillsUnderConcurrentProducersRecover) {
  RunProducerDifferential(
      {.ring_capacity = 64, .batch = 7,
       .backpressure = runtime::Backpressure::kBlock,
       .checkpoint_interval = 4},
      /*kill=*/true);
}

// Shedding policy under concurrent producers: nothing is ever silently
// lost — every pushed element is either admitted (and processed) or
// counted as dropped.
TEST(MpmcEngineTest, DropNewestConservesAccountingAcrossProducers) {
  constexpr int kProducers = 4;
  constexpr std::size_t kPerProducer = 20000;
  SumEngine eng(kProducers * kPerProducer, 2,
                {.ring_capacity = 4, .batch = 1,
                 .backpressure = runtime::Backpressure::kDropNewest});
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&eng, p] {
      SumEngine::Producer prod = eng.MakeProducer();
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        prod.push(static_cast<int64_t>(p));
      }
    });  // Producer destructor flushes the tail batches
  }
  for (auto& t : threads) t.join();
  eng.stop();
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted + stats.dropped,
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(stats.processed, stats.admitted);
}

}  // namespace
}  // namespace slick
