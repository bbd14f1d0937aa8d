// Recovery-determinism tests for the supervised parallel runtime
// (DESIGN.md §12): a run with injected worker fail-stops — recovered via
// checkpoint restore + ring replay — must produce answers *bit-identical*
// to the fault-free run, with the telemetry conservation identity intact
// (tuples_in == tuples_out + in_flight, admitted + dropped == pushed).
// Also covers the stall detector, the backpressure policy matrix through
// both admission edges and, under a -DSLICK_FAULT_INJECTION=ON build (the
// CI chaos job), the seeded fault-schedule points in the ring and
// checkpoint paths. Suite names contain "Recovery" or "Backpressure" so
// the TSan and chaos CI legs' -R filters pick them up, and the randomized
// trials live in a "DifferentialFuzz" suite so the nightly and chaos fuzz
// legs scale them via SLICK_FUZZ_TRIALS.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "runtime/fault.h"
#include "runtime/parallel_engine.h"
#include "runtime/shm/shm_ring.h"
#include "stream/synthetic.h"
#include "util/clock.h"
#include "util/rng.h"
#include "window/naive.h"

namespace slick {
namespace {

using runtime::Backpressure;
using runtime::KillPoint;
using runtime::ParallelShardedEngine;

/// Trial count scaled by SLICK_FUZZ_TRIALS (the nightly/chaos CI jobs set
/// it for longer exploration).
int GetTrials(int base) {
  if (const char* env = std::getenv("SLICK_FUZZ_TRIALS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return base;
}

std::vector<int64_t> IntStream(std::size_t count, uint64_t seed) {
  stream::SyntheticSensorSource src(seed);
  const std::vector<double> energy = src.MakeEnergySeries(count, 0);
  std::vector<int64_t> out;
  out.reserve(count);
  for (double v : energy) out.push_back(static_cast<int64_t>(v * 1024.0));
  return out;
}

/// Asserts the per-shard conservation identity at a quiescent cut.
template <typename Engine>
void ExpectConservation(const Engine& eng) {
  const telemetry::RuntimeSnapshot snap = eng.snapshot();
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const telemetry::ShardSnapshot& s = snap.shards[i];
    EXPECT_EQ(s.tuples_in, s.tuples_out + s.in_flight) << "shard " << i;
  }
  const auto stats = eng.stats();
  EXPECT_EQ(stats.processed + snap.total_in_flight(), stats.admitted);
}

/// The core differential: the same stream through a fault-free supervised
/// engine, a supervised engine with one armed fail-stop per shard, and a
/// NaiveWindow oracle. Answers must agree exactly at every checked slide
/// barrier, and the chaos engine must actually have died and recovered.
template <typename Agg>
void RunKillDifferential(std::size_t window, std::size_t shards,
                         uint64_t seed, KillPoint point, uint64_t nth_batch) {
  using Op = typename Agg::op_type;
  const typename ParallelShardedEngine<Agg>::Options opts = {
      .ring_capacity = 16,
      .batch = 3,
      .backpressure = Backpressure::kBlock,
      .checkpoint_interval = 4};
  ParallelShardedEngine<Agg> clean(window, shards, opts);
  ParallelShardedEngine<Agg> chaos(window, shards, opts);
  window::NaiveWindow<Op> oracle(window);
  for (std::size_t i = 0; i < shards; ++i) {
    chaos.InjectWorkerKill(i, point, nth_batch);
  }

  const std::vector<int64_t> stream = IntStream(220 * shards, seed);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto v = Op::lift(stream[i]);
    clean.push(v);
    chaos.push(v);
    oracle.slide(v);
    // Check at periodic slide barriers (every tuple would be quadratic).
    if ((i + 1) % (16 * shards) == 0 && i + 1 >= window) {
      const auto expected = oracle.query();
      ASSERT_EQ(clean.query(), expected) << "clean: i=" << i;
      ASSERT_EQ(chaos.query(), expected) << "chaos: i=" << i;
    }
  }
  clean.stop();
  chaos.stop();
  ASSERT_EQ(chaos.query(), clean.query());

  const auto clean_stats = clean.stats();
  const auto chaos_stats = chaos.stats();
  EXPECT_EQ(clean_stats.restarts, 0u);
  EXPECT_EQ(chaos_stats.restarts, shards);  // every armed kill fired once
  EXPECT_EQ(chaos_stats.admitted, stream.size());
  EXPECT_EQ(chaos_stats.processed, stream.size());
  EXPECT_EQ(chaos_stats.dropped, 0u);
  ExpectConservation(clean);
  ExpectConservation(chaos);
  // The recovered run replayed the abandoned span and took checkpoints.
  const telemetry::RuntimeSnapshot snap = chaos.snapshot();
  EXPECT_EQ(snap.total_restarts(), shards);
  for (const telemetry::ShardSnapshot& s : snap.shards) {
    EXPECT_GT(s.checkpoints, 0u);
  }
}

// The ISSUE's acceptance grid: shard counts {1, 2, 4} x >= 3 distinct
// schedule points x both kill sides of the slide.
class RecoverySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, uint64_t, int>> {
};
INSTANTIATE_TEST_SUITE_P(
    Grid, RecoverySweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4),
                       ::testing::Values<uint64_t>(1, 5, 13),
                       ::testing::Values(0, 1)),
    [](const auto& tpi) {
      std::string name("s");
      name += std::to_string(std::get<0>(tpi.param));
      name += "b";
      name += std::to_string(std::get<1>(tpi.param));
      name += std::get<2>(tpi.param) == 0 ? "before" : "after";
      return name;
    });

TEST_P(RecoverySweep, SumRecoversBitIdentical) {
  const auto [shards, nth, point] = GetParam();
  RunKillDifferential<core::SlickDequeInv<ops::SumInt>>(
      8 * shards, shards, 21,
      point == 0 ? KillPoint::kBeforeSlide : KillPoint::kAfterSlide, nth);
}

TEST_P(RecoverySweep, MaxRecoversBitIdentical) {
  const auto [shards, nth, point] = GetParam();
  RunKillDifferential<core::SlickDequeNonInv<ops::MaxInt>>(
      8 * shards, shards, 22,
      point == 0 ? KillPoint::kBeforeSlide : KillPoint::kAfterSlide, nth);
}

// Non-commutative ops are admitted at shards == 1 (no combine reorders
// anything), where recovery must work like any other aggregator.
TEST(RecoveryTest, ArgMaxSingleShardRecovers) {
  using Agg = core::SlickDequeNonInv<ops::ArgMax>;
  const typename ParallelShardedEngine<Agg>::Options opts = {
      .ring_capacity = 16,
      .batch = 3,
      .backpressure = Backpressure::kBlock,
      .checkpoint_interval = 4};
  ParallelShardedEngine<Agg> clean(8, 1, opts);
  ParallelShardedEngine<Agg> chaos(8, 1, opts);
  chaos.InjectWorkerKill(0, KillPoint::kAfterSlide, 3);
  const std::vector<int64_t> stream = IntStream(300, 23);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ops::ArgSample v{static_cast<double>(stream[i]), i};
    clean.push(v);
    chaos.push(v);
  }
  clean.stop();
  chaos.stop();
  const ops::ArgSample a = clean.query();
  const ops::ArgSample b = chaos.query();
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(chaos.stats().restarts, 1u);
  ExpectConservation(chaos);
}

// String-valued aggregates exercise the non-POD checkpoint path end to end
// (length-prefixed serde through ring replay and restore).
TEST(RecoveryTest, AlphaMaxStringStateRecovers) {
  using Agg = core::SlickDequeNonInv<ops::AlphaMax>;
  const typename ParallelShardedEngine<Agg>::Options opts = {
      .ring_capacity = 16,
      .batch = 3,
      .backpressure = Backpressure::kBlock,
      .checkpoint_interval = 4};
  ParallelShardedEngine<Agg> clean(6, 2, opts);
  ParallelShardedEngine<Agg> chaos(6, 2, opts);
  chaos.InjectWorkerKill(0, KillPoint::kBeforeSlide, 2);
  chaos.InjectWorkerKill(1, KillPoint::kAfterSlide, 4);
  const char* words[] = {"pear",  "apple", "quince", "fig",   "mango",
                         "grape", "kiwi",  "plum",   "peach", "lime"};
  util::SplitMix64 rng(24);
  for (int i = 0; i < 400; ++i) {
    const std::string v(words[rng.NextBounded(10)]);
    clean.push(v);
    chaos.push(v);
  }
  clean.stop();
  chaos.stop();
  EXPECT_EQ(chaos.query(), clean.query());
  EXPECT_EQ(chaos.stats().restarts, 2u);
  ExpectConservation(chaos);
}

// Supervision with no faults must be answer-invisible: the checkpointing
// engine and the PR 4 fast-path engine agree on every barrier.
TEST(RecoveryTest, SupervisionWithoutFaultsIsAnswerInvisible) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  ParallelShardedEngine<Agg> fast(
      16, 4, {.ring_capacity = 32, .batch = 4});
  ParallelShardedEngine<Agg> supervised(
      16, 4,
      {.ring_capacity = 32, .batch = 4, .checkpoint_interval = 8});
  const std::vector<int64_t> stream = IntStream(1000, 25);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fast.push(stream[i]);
    supervised.push(stream[i]);
    if ((i + 1) % 64 == 0 && i + 1 >= 16) {
      ASSERT_EQ(supervised.query(), fast.query()) << "i=" << i;
    }
  }
  fast.stop();
  supervised.stop();
  EXPECT_EQ(supervised.query(), fast.query());
  EXPECT_EQ(supervised.stats().restarts, 0u);
  ExpectConservation(supervised);
  const telemetry::RuntimeSnapshot snap = supervised.snapshot();
  EXPECT_GT(snap.shards[0].checkpoints, 0u);
  EXPECT_STREQ(snap.backpressure, "block");
  EXPECT_EQ(snap.checkpoint_interval, 8u);
}

// Multiple sequential kills on the same shard: recovery must compose (each
// restart replays from the latest checkpoint, not the first).
TEST(RecoveryTest, RepeatedKillsOnOneShardCompose) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  const typename ParallelShardedEngine<Agg>::Options opts = {
      .ring_capacity = 16,
      .batch = 3,
      .backpressure = Backpressure::kBlock,
      .checkpoint_interval = 4};
  ParallelShardedEngine<Agg> clean(8, 2, opts);
  ParallelShardedEngine<Agg> chaos(8, 2, opts);
  const std::vector<int64_t> stream = IntStream(600, 26);
  chaos.InjectWorkerKill(0, KillPoint::kBeforeSlide, 2);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    clean.push(stream[i]);
    chaos.push(stream[i]);
    if (i == 200) {
      // The first kill has certainly fired by now (its ordinal is 2);
      // re-arm a later one on the same shard, plus one on the other side.
      ASSERT_EQ(chaos.query(), clean.query());
      chaos.InjectWorkerKill(0, KillPoint::kAfterSlide, 40);
      chaos.InjectWorkerKill(1, KillPoint::kBeforeSlide, 45);
    }
  }
  clean.stop();
  chaos.stop();
  EXPECT_EQ(chaos.query(), clean.query());
  EXPECT_EQ(chaos.stats().restarts, 3u);
  ExpectConservation(chaos);
}

// Stall detector (DESIGN.md §12.3): a live worker wedged inside slide()
// with backlog queued is counted once per episode, never restarted.

/// While false, GatedSum::slide() waits: a live worker wedged mid-batch.
std::atomic<bool> g_slide_gate_open{true};

/// Checkpointable SumInt window whose slide() waits on g_slide_gate_open.
class GatedSum {
 public:
  using op_type = ops::SumInt;
  using value_type = op_type::value_type;
  using result_type = op_type::result_type;

  explicit GatedSum(std::size_t window) : inner_(window) {}

  void slide(value_type v) {
    // acquire: pairs with the test's release store that opens the gate.
    while (!g_slide_gate_open.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    inner_.slide(v);
  }
  result_type query() const { return inner_.query(); }
  result_type query(std::size_t range) const { return inner_.query(range); }
  std::size_t window_size() const { return inner_.window_size(); }
  std::size_t memory_bytes() const { return inner_.memory_bytes(); }
  void SaveState(std::ostream& os) const { inner_.SaveState(os); }
  bool LoadState(std::istream& is) { return inner_.LoadState(is); }

 private:
  core::SlickDequeInv<ops::SumInt> inner_;
};

TEST(RecoveryTest, StallDetectorLatchesOncePerEpisode) {
  using Engine = ParallelShardedEngine<GatedSum>;
  const uint64_t t_start = util::MonotonicNanos();
  Engine eng(4, 1,
             {.ring_capacity = 16, .batch = 1, .checkpoint_interval = 4});
  // Declared after the engine, so a failing assertion still opens the gate
  // before the engine's destructor drains the ring.
  struct GateGuard {
    GateGuard() { g_slide_gate_open.store(false, std::memory_order_release); }
    ~GateGuard() { g_slide_gate_open.store(true, std::memory_order_release); }
  } gate;
  window::NaiveWindow<ops::SumInt> oracle(4);
  // The worker claims the first tuple and waits inside slide(); the rest
  // stay queued as backlog while its heartbeat ages.
  for (int64_t v = 1; v <= 8; ++v) {
    eng.push(v);
    oracle.slide(v);
  }
  const auto stalls = [&] {
    return eng.snapshot().shards[0].stall_detections;
  };
  uint64_t detected_at = 0;
  while (util::MonotonicNanos() - t_start < 10 * Engine::kStallNs) {
    eng.SupervisePoll();
    if (stalls() > 0) {
      detected_at = util::MonotonicNanos();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(detected_at, 0u) << "stall never detected";
  // The worker's last heartbeat is no older than the engine.
  EXPECT_GT(detected_at - t_start, Engine::kStallNs);
  // Still the same episode: further polls do not count it again.
  for (int i = 0; i < 20; ++i) {
    eng.SupervisePoll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(stalls(), 1u);
  // Report-only: opening the gate lets the same thread finish the backlog.
  g_slide_gate_open.store(true, std::memory_order_release);
  EXPECT_EQ(eng.query(), oracle.query());
  EXPECT_EQ(stalls(), 1u);
  EXPECT_EQ(eng.stats().restarts, 0u);
}

// The supervised-recovery grid crossed with the crash-robust shm ring
// (DESIGN.md §17): a worker fail-stop while lease producers are pushing
// directly into the shard rings must recover answer-identically to a
// fault-free engine fed the same interleaving, and a graceful detach
// must leave the lease table untouched by the reaper (no reclaims, no
// fences, no tombstones). Conservation is deliberately NOT asserted:
// tuples_in counts only the router's pushes, and lease traffic lands in
// tuples_out without it.
TEST(RecoveryTest, ShmRingWorkerKillWithLeaseProducersRecovers) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  using Engine = ParallelShardedEngine<Agg, runtime::ShmRing>;
  using Lease = runtime::ShmRing<int64_t>::LeaseProducer;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const typename Engine::Options opts = {
        .ring_capacity = 16,
        .batch = 3,
        .backpressure = Backpressure::kBlock,
        .checkpoint_interval = 4,
        .lease_ns = uint64_t{3'600} * 1'000'000'000};  // never expires here
    Engine clean(8 * shards, shards, opts);
    Engine chaos(8 * shards, shards, opts);
    for (std::size_t i = 0; i < shards; ++i) {
      chaos.InjectWorkerKill(
          i, i % 2 == 0 ? KillPoint::kBeforeSlide : KillPoint::kAfterSlide,
          5 + i);
    }
    std::vector<Lease> clean_leases;
    std::vector<Lease> chaos_leases;
    for (std::size_t i = 0; i < shards; ++i) {
      clean_leases.push_back(clean.shard_ring(i).AttachProducer());
      chaos_leases.push_back(chaos.shard_ring(i).AttachProducer());
    }
    // Identical interleaving into both engines from one thread: the router
    // stream plus a lease-pushed side channel every 7th tuple, so worker
    // replay after the kill covers lease-landed slots too.
    const auto side_push = [](Lease& lease, int64_t v) {
      for (;;) {
        std::size_t pushed = 0;
        const auto r = lease.TryPush(&v, 1, &pushed);
        if (pushed == 1) return;
        // kFull while the worker drains is the only retryable outcome;
        // kFenced/kClosed here would mean the reaper or shutdown got a
        // live, heartbeating producer — a protocol failure.
        ASSERT_EQ(r, Lease::Result::kFull);
      }
    };
    const std::vector<int64_t> stream = IntStream(220 * shards, 27);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      clean.push(stream[i]);
      chaos.push(stream[i]);
      if (i % 7 == 0) {
        const std::size_t shard = (i / 7) % shards;
        const auto v = static_cast<int64_t>(1000 + i);
        side_push(clean_leases[shard], v);
        side_push(chaos_leases[shard], v);
      }
    }
    for (std::size_t i = 0; i < shards; ++i) {
      clean_leases[i].Detach();
      chaos_leases[i].Detach();
    }
    clean.stop();
    chaos.stop();
    EXPECT_EQ(chaos.query(), clean.query()) << "shards=" << shards;
    EXPECT_EQ(clean.stats().restarts, 0u);
    EXPECT_EQ(chaos.stats().restarts, shards);
    for (std::size_t i = 0; i < shards; ++i) {
      const runtime::ShmLeaseStats ls = chaos.shard_ring(i).lease_stats();
      EXPECT_EQ(ls.leases_reclaimed, 0u) << "shard " << i;
      EXPECT_EQ(ls.zombie_fences, 0u) << "shard " << i;
      EXPECT_EQ(ls.slots_tombstoned, 0u) << "shard " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Backpressure policy matrix (DESIGN.md §12.4). A dead, unsupervised worker
// makes its ring a black hole — the sharpest way to force each policy's
// full-ring edge. Each policy runs through both admission edges: the
// engine's own push() on SPSC rings (the router, which supervises between
// retries) and a Producer handle on MPMC rings (which only yields). The
// router case keeps the plain test name.
// ---------------------------------------------------------------------------

struct RouterEdge {
  template <typename Agg>
  using Engine = ParallelShardedEngine<Agg>;
  /// Hands `feed` the engine itself, then flushes its staging.
  template <typename Eng, typename Feed>
  static void Run(Eng& eng, Feed feed) {
    feed(eng);
    eng.flush();
  }
};

struct ProducerEdge {
  template <typename Agg>
  using Engine = ParallelShardedEngine<Agg, runtime::MpmcRing>;
  /// Hands `feed` a Producer handle, flushed and destroyed on return (the
  /// quiesce contract for the engine reads that follow).
  template <typename Eng, typename Feed>
  static void Run(Eng& eng, Feed feed) {
    typename Eng::Producer prod = eng.MakeProducer();
    feed(prod);
    prod.flush();
  }
};

template <typename Edge>
void DeadlineExpiryShedsAndCounts() {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  typename Edge::template Engine<Agg> eng(
      4, 1,
      {.ring_capacity = 8,
       .batch = 2,
       .backpressure = Backpressure::kBlockWithDeadline,
       .deadline_ns = 200'000});
  // Kill the only worker immediately: nothing drains, every flush after
  // the ring fills must expire its deadline and shed.
  eng.InjectWorkerKill(0, KillPoint::kBeforeSlide, 1);
  Edge::Run(eng, [](auto& in) {
    for (int64_t i = 0; i < 64; ++i) in.push(1);
  });
  const telemetry::RuntimeSnapshot snap = eng.snapshot();
  EXPECT_GT(snap.shards[0].deadline_expiries, 0u);
  EXPECT_GT(snap.total_dropped(), 0u);
  // Every expiry sheds at least one element of its batch.
  EXPECT_GE(snap.total_dropped(), snap.shards[0].deadline_expiries);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted + stats.dropped, 64u);
  EXPECT_STREQ(snap.backpressure, "block-with-deadline");
  eng.stop();
}

TEST(BackpressureTest, DeadlineExpiryShedsAndCounts) {
  DeadlineExpiryShedsAndCounts<RouterEdge>();
}

TEST(BackpressureTest, DeadlineExpiryShedsAndCountsViaProducer) {
  DeadlineExpiryShedsAndCounts<ProducerEdge>();
}

template <typename Edge>
void ShedOldestNeverBlocksAndKeepsFreshest() {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  typename Edge::template Engine<Agg> eng(
      4, 1,
      {.ring_capacity = 8,
       .batch = 2,
       .backpressure = Backpressure::kShedOldest});
  eng.InjectWorkerKill(0, KillPoint::kBeforeSlide, 1);
  // Returns without blocking despite the dead worker.
  Edge::Run(eng, [](auto& in) {
    for (int64_t i = 0; i < 200; ++i) in.push(i);
  });
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted + stats.dropped, 200u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_LE(stats.admitted, 8u + 2u);  // bounded by ring + claimed batch
  EXPECT_EQ(eng.snapshot().shards[0].deadline_expiries, 0u);
  eng.stop();
}

TEST(BackpressureTest, ShedOldestNeverBlocksAndKeepsFreshest) {
  ShedOldestNeverBlocksAndKeepsFreshest<RouterEdge>();
}

TEST(BackpressureTest, ShedOldestNeverBlocksAndKeepsFreshestViaProducer) {
  ShedOldestNeverBlocksAndKeepsFreshest<ProducerEdge>();
}

template <typename Edge>
void ErrorPolicyDiesOnFullRing() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Agg = core::SlickDequeInv<ops::SumInt>;
  EXPECT_DEATH(
      {
        typename Edge::template Engine<Agg> eng(
            4, 1,
            {.ring_capacity = 4,
             .batch = 1,
             .backpressure = Backpressure::kError});
        eng.InjectWorkerKill(0, KillPoint::kBeforeSlide, 1);
        Edge::Run(eng, [](auto& in) {
          for (int64_t i = 0; i < 64; ++i) in.push(1);
        });
      },
      "kError");
}

TEST(BackpressureTest, ErrorPolicyDiesOnFullRing) {
  ErrorPolicyDiesOnFullRing<RouterEdge>();
}

TEST(BackpressureTest, ErrorPolicyDiesOnFullRingViaProducer) {
  ErrorPolicyDiesOnFullRing<ProducerEdge>();
}

TEST(BackpressureTest, MultiShardNonCommutativeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Engine = ParallelShardedEngine<core::SlickDequeNonInv<ops::ArgMax>>;
  EXPECT_DEATH(Engine(8, 2), "commutative");
}

TEST(BackpressureTest, SupervisionRequiresCheckpointableInterval) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Engine = ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>>;
  // Interval larger than half the ring capacity can wedge on unreleased
  // slots before a checkpoint is ever reachable.
  EXPECT_DEATH(Engine(8, 1, {.ring_capacity = 8, .checkpoint_interval = 100}),
               "half the ring capacity");
}

// ---------------------------------------------------------------------------
// Randomized recovery fuzz — named "DifferentialFuzz" so the nightly and
// chaos CI legs pick it up and scale it with SLICK_FUZZ_TRIALS.
// ---------------------------------------------------------------------------

TEST(DifferentialFuzzTest, RecoveryUnderRandomKillsMatchesOracle) {
  const int trials = GetTrials(6);
  util::SplitMix64 rng(0xFEEDFACE);
  for (int t = 0; t < trials; ++t) {
    const std::size_t shards = std::size_t{1} << rng.NextBounded(3);  // 1/2/4
    const std::size_t window = shards * (1 + rng.NextBounded(8));
    const std::size_t batch = 1 + rng.NextBounded(4);
    const std::size_t interval = 2 + rng.NextBounded(7);  // <= 8 = cap/2
    using Agg = core::SlickDequeInv<ops::SumInt>;
    const typename ParallelShardedEngine<Agg>::Options opts = {
        .ring_capacity = 16,
        .batch = batch,
        .backpressure = Backpressure::kBlock,
        .checkpoint_interval = interval};
    ParallelShardedEngine<Agg> chaos(window, shards, opts);
    window::NaiveWindow<ops::SumInt> oracle(window);
    std::size_t expected_restarts = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      if (rng.NextBounded(4) != 0) {  // most shards get a kill
        const KillPoint point = rng.NextBounded(2) == 0
                                    ? KillPoint::kBeforeSlide
                                    : KillPoint::kAfterSlide;
        chaos.InjectWorkerKill(i, point, 1 + rng.NextBounded(20));
        ++expected_restarts;
      }
    }
    const std::vector<int64_t> stream =
        IntStream(150 * shards + rng.NextBounded(100), 1000 + t);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      chaos.push(stream[i]);
      oracle.slide(stream[i]);
      if ((i + 1) % (32 * shards) == 0 && i + 1 >= window) {
        ASSERT_EQ(chaos.query(), oracle.query())
            << "trial=" << t << " i=" << i << " shards=" << shards
            << " window=" << window << " batch=" << batch
            << " interval=" << interval;
      }
    }
    chaos.stop();
    ASSERT_EQ(chaos.query(), oracle.query()) << "trial=" << t;
    ASSERT_EQ(chaos.stats().restarts, expected_restarts) << "trial=" << t;
    ExpectConservation(chaos);
  }
}

// ---------------------------------------------------------------------------
// Seeded fault-injection schedules (compiled only under
// -DSLICK_FAULT_INJECTION=ON; the CI chaos job runs these, the default
// build skips them).
// ---------------------------------------------------------------------------

class FaultInjectionRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!runtime::fault::Enabled()) {
      GTEST_SKIP() << "build with -DSLICK_FAULT_INJECTION=ON";
    }
    runtime::fault::DisarmAll();
  }
  void TearDown() override { runtime::fault::DisarmAll(); }
};

using FI = runtime::fault::Point;

/// One supervised engine under an armed fault schedule vs a NaiveWindow
/// oracle, fed through `Edge` in 50-tuple rounds with a query after each;
/// answers must match and accounting must conserve.
template <typename Edge = RouterEdge>
void RunFaultSchedule(uint64_t seed) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  typename Edge::template Engine<Agg> eng(
      8, 2,
      {.ring_capacity = 16,
       .batch = 3,
       .backpressure = Backpressure::kBlock,
       .checkpoint_interval = 4});
  window::NaiveWindow<ops::SumInt> oracle(8);
  const std::vector<int64_t> stream = IntStream(500, seed);
  for (std::size_t from = 0; from < stream.size(); from += 50) {
    Edge::Run(eng, [&](auto& in) {
      for (std::size_t i = from; i < from + 50; ++i) {
        in.push(stream[i]);
        oracle.slide(stream[i]);
      }
    });
    ASSERT_EQ(eng.query(), oracle.query()) << "i=" << from + 49;
  }
  eng.stop();
  EXPECT_EQ(eng.query(), oracle.query());
  const auto stats = eng.stats();
  EXPECT_EQ(stats.admitted, stream.size());
  EXPECT_EQ(stats.processed, stream.size());
  ExpectConservation(eng);
}

TEST_F(FaultInjectionRecoveryTest, SeededWorkerKillsRecover) {
  runtime::fault::Arm(FI::kWorkerKillBeforeSlide, 0, 7);
  runtime::fault::Arm(FI::kWorkerKillAfterSlide, 1, 11);
  RunFaultSchedule(31);
  EXPECT_EQ(runtime::fault::FiredCount(FI::kWorkerKillBeforeSlide), 1u);
  EXPECT_EQ(runtime::fault::FiredCount(FI::kWorkerKillAfterSlide), 1u);
}

TEST_F(FaultInjectionRecoveryTest, PublishDelayIsAnswerInvisible) {
  runtime::fault::Arm(FI::kPublishDelay, 0, 5);
  runtime::fault::Arm(FI::kPublishDelay, 1, 9);
  RunFaultSchedule(32);
  EXPECT_EQ(runtime::fault::FiredCount(FI::kPublishDelay), 2u);
}

TEST_F(FaultInjectionRecoveryTest, SpuriousRingFullIsRetried) {
  runtime::fault::Arm(FI::kRingSpuriousFull, 0, 3);
  runtime::fault::Arm(FI::kRingSpuriousFull, 1, 13);
  RunFaultSchedule(33);
  EXPECT_GE(runtime::fault::FiredCount(FI::kRingSpuriousFull), 2u);
}

TEST_F(FaultInjectionRecoveryTest, SpuriousRingFullIsRetriedViaProducer) {
  runtime::fault::Arm(FI::kRingSpuriousFull, 0, 3);
  runtime::fault::Arm(FI::kRingSpuriousFull, 1, 13);
  RunFaultSchedule<ProducerEdge>(33);
  EXPECT_GE(runtime::fault::FiredCount(FI::kRingSpuriousFull), 2u);
}

TEST_F(FaultInjectionRecoveryTest, CorruptCheckpointIsDiscardedNotRestored) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  // Corrupt the 2nd checkpoint on shard 0, then kill the worker later: the
  // corrupt frame must have been rejected at write time (counted as a
  // failure), so recovery restores from a *good* frame and answers match.
  runtime::fault::Arm(FI::kCheckpointCorrupt, 0, 2);
  ParallelShardedEngine<Agg> eng(
      8, 2,
      {.ring_capacity = 16,
       .batch = 3,
       .backpressure = Backpressure::kBlock,
       .checkpoint_interval = 4});
  window::NaiveWindow<ops::SumInt> oracle(8);
  eng.InjectWorkerKill(0, KillPoint::kBeforeSlide, 12);
  const std::vector<int64_t> stream = IntStream(500, 34);
  for (int64_t v : stream) {
    eng.push(v);
    oracle.slide(v);
  }
  eng.stop();
  EXPECT_EQ(eng.query(), oracle.query());
  EXPECT_EQ(runtime::fault::FiredCount(FI::kCheckpointCorrupt), 1u);
  const telemetry::RuntimeSnapshot snap = eng.snapshot();
  EXPECT_EQ(snap.shards[0].checkpoint_failures, 1u);
  EXPECT_EQ(snap.shards[0].worker_restarts, 1u);
  ExpectConservation(eng);
}

TEST_F(FaultInjectionRecoveryTest, CheckpointAllocFailureIsRetried) {
  runtime::fault::Arm(FI::kCheckpointAllocFail, 0, 1);
  runtime::fault::Arm(FI::kCheckpointAllocFail, 1, 2);
  RunFaultSchedule(35);
  EXPECT_EQ(runtime::fault::FiredCount(FI::kCheckpointAllocFail), 2u);
}

}  // namespace
}  // namespace slick
