// Ring conformance suite: the shared contract that lets ShardWorker and
// the supervised-recovery replay run unchanged over either ring type
// (DESIGN.md §14.1), pinned as a type-parameterized suite over SpscRing
// and MpmcRing. Covers the producer/consumer API shape, close semantics
// (drain-then-signal, wakeups), and the PR 5 claim-cursor regressions
// (disjoint sequential claims, close with a held unreleased claim,
// ResetClaims replay), and the park/wake round trip of the waiter-counted
// futex pair — any future ring must pass this suite verbatim to be
// selectable in ParallelShardedEngine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/mpmc_ring.h"
#include "runtime/shm/shm_ring.h"
#include "runtime/spsc_ring.h"

namespace slick {
namespace {

template <typename Ring>
class RingConformanceTest : public ::testing::Test {};

using RingTypes =
    ::testing::Types<runtime::SpscRing<int>, runtime::MpmcRing<int>,
                     runtime::ShmRing<int>>;

class RingTypeNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (requires { T::kShared; }) {
      return "Shm";
    } else {
      return T::kMultiProducer ? "Mpmc" : "Spsc";
    }
  }
};

TYPED_TEST_SUITE(RingConformanceTest, RingTypes, RingTypeNames);

TYPED_TEST(RingConformanceTest, MultiProducerTraitIsDeclared) {
  // The engine keys Producer-handle support on this trait; both values
  // must be well-defined compile-time constants.
  constexpr bool mp = TypeParam::kMultiProducer;
  EXPECT_TRUE(mp == true || mp == false);
}

TYPED_TEST(RingConformanceTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TypeParam(100).capacity(), 128u);
  EXPECT_EQ(TypeParam(64).capacity(), 64u);
  EXPECT_EQ(TypeParam(1).capacity(), 2u);
}

TYPED_TEST(RingConformanceTest, FifoOrderAcrossWraps) {
  TypeParam ring(8);
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

TYPED_TEST(RingConformanceTest, BoundedAndPartialBatches) {
  TypeParam ring(8);
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

TYPED_TEST(RingConformanceTest, ClaimPushPublishRoundTrip) {
  TypeParam ring(8);
  std::size_t n = 0;
  int* span = ring.TryClaimPush(3, &n);
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(n, 3u);
  std::iota(span, span + 3, 10);
  // Nothing is visible until the publish (both rings defer visibility —
  // the SPSC ring via its tail store, the MPMC ring via per-slot seqs).
  int out[4];
  EXPECT_EQ(ring.try_pop_n(out, 4), 0u);
  ring.PublishPush(span, 3);
  EXPECT_EQ(ring.try_pop_n(out, 4), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], 10 + i);
}

TYPED_TEST(RingConformanceTest, CloseDrainsThenSignalsShutdown) {
  TypeParam ring(8);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.try_push(3));  // producer rejected after close
  int out[4];
  EXPECT_EQ(ring.pop_n(out, 4), 2u);  // pre-close elements still drain
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(ring.pop_n(out, 4), 0u);  // then the shutdown signal
}

// PR 5 regression: sequential claims without an intervening release must
// return disjoint spans (the claim cursor, not the release cursor, drives
// handout) — a consumer deferring releases must never aggregate twice.
TYPED_TEST(RingConformanceTest, SequentialClaimsAreDisjoint) {
  TypeParam ring(16);
  std::vector<int> src(8);
  std::iota(src.begin(), src.end(), 0);
  ASSERT_EQ(ring.try_push_n(src.data(), src.size()), src.size());
  std::size_t n1 = 0, n2 = 0;
  int* a = ring.TryClaimPop(4, &n1);
  int* b = ring.TryClaimPop(4, &n2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(n1, 4u);
  ASSERT_EQ(n2, 4u);
  EXPECT_EQ(b, a + 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], 4 + i);
  }
  EXPECT_EQ(ring.unconsumed(), 0u);
  EXPECT_EQ(ring.unreleased(), 8u);
  ring.ReleasePop(8);
  EXPECT_EQ(ring.unreleased(), 0u);
  EXPECT_TRUE(ring.empty());
}

// PR 5 regression: a held unreleased claim across close() — the post-close
// drain hands out only the remaining elements, exactly once.
TYPED_TEST(RingConformanceTest, CloseWithUnreleasedClaimDrainsExactlyOnce) {
  TypeParam ring(16);
  std::vector<int> src(10);
  std::iota(src.begin(), src.end(), 0);
  ASSERT_EQ(ring.try_push_n(src.data(), src.size()), src.size());

  std::size_t n1 = 0;
  int* held = ring.TryClaimPop(6, &n1);
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(n1, 6u);

  ring.close();

  std::size_t n2 = 0;
  int* rest = ring.ClaimPop(16, &n2);
  ASSERT_NE(rest, nullptr);
  ASSERT_EQ(n2, 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rest[i], 6 + i);

  ring.ReleasePop(n1 + n2);
  std::size_t n3 = ~std::size_t{0};
  EXPECT_EQ(ring.ClaimPop(16, &n3), nullptr);
  EXPECT_EQ(n3, 0u);
}

// The crash-recovery replay primitive: ResetClaims rewinds the claim
// cursor so the whole unreleased span is claimable again, in order, with
// its original values, followed by the never-claimed suffix.
TYPED_TEST(RingConformanceTest, ResetClaimsReplaysUnreleasedSpan) {
  TypeParam ring(16);
  std::vector<int> src(12);
  std::iota(src.begin(), src.end(), 0);
  ASSERT_EQ(ring.try_push_n(src.data(), src.size()), src.size());

  std::size_t n = 0;
  ASSERT_NE(ring.TryClaimPop(4, &n), nullptr);
  ASSERT_EQ(n, 4u);
  ring.ReleasePop(4);
  ASSERT_NE(ring.TryClaimPop(4, &n), nullptr);
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(ring.unreleased(), 4u);
  EXPECT_EQ(ring.unconsumed(), 4u);

  ring.ResetClaims();  // "crash": abandon the claimed batch

  EXPECT_EQ(ring.unreleased(), 0u);
  EXPECT_EQ(ring.unconsumed(), 8u);
  int out[16];
  EXPECT_EQ(ring.try_pop_n(out, 16), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], 4 + i);
  EXPECT_TRUE(ring.empty());
}

// close() must wake a consumer parked on an empty ring.
TYPED_TEST(RingConformanceTest, CloseWakesParkedConsumer) {
  TypeParam ring(16);
  std::thread consumer([&ring] {
    int out[4];
    EXPECT_EQ(ring.pop_n(out, 4), 0u);  // parks until close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.close();
  consumer.join();
}

// A producer parked on a full ring must be released by the consumer
// draining (backpressure) — the blocking-push park/wake handshake.
TYPED_TEST(RingConformanceTest, ConsumerReleasesBlockedProducer) {
  TypeParam ring(8);
  std::vector<int> src(32);
  std::iota(src.begin(), src.end(), 0);
  std::thread producer([&ring, &src] {
    EXPECT_EQ(ring.push_n(src.data(), src.size()), src.size());
  });
  int expected = 0;
  int out[8];
  while (expected < 32) {
    const std::size_t n = ring.pop_n(out, 8);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
}

// Spins until `cond` holds; each park/wake test first waits for the
// waiter count, so the wake under test really reaches a sleeper.
template <typename Cond>
void AwaitTrue(Cond cond) {
  while (!cond()) std::this_thread::yield();
}

// Park/wake round trip over the waiter-counted futex pair: a publish wakes
// a consumer parked on an empty ring.
TYPED_TEST(RingConformanceTest, PublishWakesParkedConsumer) {
  TypeParam ring(16);
  std::thread consumer([&ring] {
    int out[4];
    ASSERT_EQ(ring.pop_n(out, 4), 1u);
    EXPECT_EQ(out[0], 42);
  });
  AwaitTrue([&] { return ring.data_waiters() == 1; });
  ASSERT_TRUE(ring.try_push(42));
  consumer.join();
  EXPECT_EQ(ring.data_waiters(), 0u);
  ring.close();
}

// A release wakes a producer parked on a full ring.
TYPED_TEST(RingConformanceTest, ReleaseWakesProducerParkedOnFullRing) {
  TypeParam ring(4);
  const int fill[4] = {0, 1, 2, 3};
  ASSERT_EQ(ring.try_push_n(fill, 4), 4u);
  std::thread producer([&ring] {
    const int more = 4;
    EXPECT_EQ(ring.push_n(&more, 1), 1u);
  });
  AwaitTrue([&] { return ring.space_waiters() == 1; });
  int out[4];
  ASSERT_EQ(ring.try_pop_n(out, 2), 2u);
  producer.join();
  EXPECT_EQ(ring.space_waiters(), 0u);
  EXPECT_EQ(ring.try_pop_n(out, 4), 3u);
  EXPECT_EQ(out[2], 4);
}

// close() wakes both sides: a consumer parked on an empty ring and a
// producer parked on a full one.
TYPED_TEST(RingConformanceTest, CloseWakesParkedConsumerAndProducer) {
  TypeParam empty(16);
  TypeParam full(2);
  const int fill[2] = {0, 1};
  ASSERT_EQ(full.try_push_n(fill, 2), 2u);
  std::thread consumer([&empty] {
    int out[4];
    EXPECT_EQ(empty.pop_n(out, 4), 0u);
  });
  std::thread producer([&full] {
    const int more = 2;
    EXPECT_EQ(full.push_n(&more, 1), 0u);
  });
  AwaitTrue([&] {
    return empty.data_waiters() == 1 && full.space_waiters() == 1;
  });
  empty.close();
  full.close();
  consumer.join();
  producer.join();
}

// The backlog views are read cross-thread while the consumer drains
// (ParallelShardedEngine::snapshot() exports them as in_flight and
// unreleased). Each must load its trailing cursor first: a claim or release
// landing between its two loads then only inflates the view, where the
// opposite order wraps the unsigned difference to ~2^64. A third thread
// samples both views against a producer and a claim-then-release consumer,
// and bounds each sample by the total pushed so far, loaded after it.
TYPED_TEST(RingConformanceTest, BacklogViewsNeverWrapUnderConcurrentDrain) {
  TypeParam ring(64);
  constexpr int kItems = 1 << 20;
  std::atomic<uint64_t> pushed{0};
  std::atomic<bool> drained{false};
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      // Counted before the push, so `pushed` never trails the ring's tail.
      pushed.fetch_add(1, std::memory_order_seq_cst);
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    int next = 0;
    while (next < kItems) {
      std::size_t n = 0;
      int* span = ring.TryClaimPop(4, &n);
      if (span == nullptr) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (span[i] != next + static_cast<int>(i)) {
          ADD_FAILURE() << "FIFO broken at " << next + static_cast<int>(i);
        }
      }
      next += static_cast<int>(n);
      ring.ReleasePop(n);
    }
    drained.store(true, std::memory_order_release);
  });
  uint64_t samples = 0;
  uint64_t wrapped = 0;
  std::size_t worst = 0;
  while (!drained.load(std::memory_order_acquire)) {
    const std::size_t unconsumed = ring.unconsumed();
    const uint64_t after_unconsumed = pushed.load(std::memory_order_seq_cst);
    const std::size_t unreleased = ring.unreleased();
    const uint64_t after_unreleased = pushed.load(std::memory_order_seq_cst);
    if (unconsumed > after_unconsumed) {
      ++wrapped;
      worst = unconsumed > worst ? unconsumed : worst;
    }
    if (unreleased > after_unreleased) {
      ++wrapped;
      worst = unreleased > worst ? unreleased : worst;
    }
    ++samples;
  }
  producer.join();
  consumer.join();
  EXPECT_EQ(wrapped, 0u) << "of " << samples << " samples; worst view "
                         << worst;
  EXPECT_EQ(ring.unconsumed(), 0u);
  EXPECT_EQ(ring.unreleased(), 0u);
}

}  // namespace
}  // namespace slick
