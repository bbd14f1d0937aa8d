// Shm lease chaos suite (DESIGN.md §17): producers that die — cleanly,
// mid-span, or as stalled zombies — must never wedge the consumer or
// corrupt the stream. Tier-1 legs cover the reaper protocol with real
// process death (fork + _exit without detach) and forged clocks; the
// -DSLICK_FAULT_INJECTION=ON legs (the CI chaos job) SIGKILL producer
// processes at seeded claim/publish points and check the drained answers
// bit-identical against per-shard serial oracles, with leases_reclaimed
// matching the injected kills exactly. Suite names contain "Lease" so the
// TSan CI leg's -R filter picks them up.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "ops/arith.h"
#include "runtime/fault.h"
#include "runtime/parallel_engine.h"
#include "runtime/shm/shm_ring.h"
#include "util/clock.h"
#include "window/naive.h"

namespace slick::runtime {

/// White-box peer (befriended by ShmRing): forges lease rows into states
/// only a crash between two instructions can produce organically — the
/// kIntent window between the intent store and the tail CAS.
struct ShmRingTestPeer {
  template <typename T>
  static ShmLease& Lease(ShmRing<T>& ring, std::size_t i) {
    return ring.leases_[i];
  }
};

}  // namespace slick::runtime

namespace slick {
namespace {

namespace fault = runtime::fault;

using IntRing = runtime::ShmRing<int>;
using IntLease = IntRing::LeaseProducer;

// ---------------------------------------------------------------------
// Tier-1 legs: real process death and forged clocks, no fault injection.
// ---------------------------------------------------------------------

// The segment layout is a cross-binary contract: a producer built from one
// revision attaches to a segment created by another, and
// InspectShmSegment reads ShmControl without knowing the slot type.
// These figures are the version-2 layout; a refactor that moves a region
// offset, resizes or reorders ShmControl, or changes the hash inputs must
// fail here rather than break attach silently. Changing them on purpose
// means bumping kShmVersion.
TEST(ShmSegmentLayoutTest, VersionTwoGeometryAndHashArePinned) {
  EXPECT_EQ(runtime::kShmVersion, 2u);
  const runtime::ShmLayout l =
      runtime::ComputeShmLayout(1024, 16, sizeof(double), alignof(double));
  EXPECT_EQ(l.control_off, 64u);
  EXPECT_EQ(l.lease_off, 576u);
  EXPECT_EQ(l.seq_off, 1600u);
  EXPECT_EQ(l.slot_off, 9792u);
  EXPECT_EQ(l.total_bytes, 20480u);
  EXPECT_EQ(runtime::ShmLayoutHash(1024, 16, sizeof(double), alignof(double)),
            0xF67E2A393D0BEFEDull);
  EXPECT_EQ(sizeof(runtime::ShmHeader), 64u);
  EXPECT_EQ(sizeof(runtime::ShmControl), 512u);
  EXPECT_EQ(sizeof(runtime::ShmLease), 64u);

  const auto ctl = std::make_unique<runtime::ShmControl>();
  const auto off = [&ctl](const auto& field) {
    return reinterpret_cast<const char*>(&field) -
           reinterpret_cast<const char*>(ctl.get());
  };
  EXPECT_EQ(off(ctl->head), 0);
  EXPECT_EQ(off(ctl->tail), 64);
  EXPECT_EQ(off(ctl->claim), 128);
  EXPECT_EQ(off(ctl->tail_event), 192);
  EXPECT_EQ(off(ctl->tail_waiters), 196);
  EXPECT_EQ(off(ctl->head_event), 256);
  EXPECT_EQ(off(ctl->head_waiters), 260);
  EXPECT_EQ(off(ctl->closed), 320);
  EXPECT_EQ(off(ctl->highwater), 384);
  EXPECT_EQ(off(ctl->leases_reclaimed), 448);
  EXPECT_EQ(off(ctl->slots_tombstoned), 456);
  EXPECT_EQ(off(ctl->zombie_fences), 464);
}

// The header CRC of that same v2 geometry, recorded from the byte-at-a-time
// CRC the segment format was defined with: every CRC tier must reproduce
// it, or segments created by an older build stop attaching.
TEST(ShmSegmentLayoutTest, VersionTwoHeaderCrcIsPinned) {
  runtime::ShmHeader h{};
  h.magic = runtime::kShmMagic;
  h.version = runtime::kShmVersion;
  h.layout_hash = 0xF67E2A393D0BEFEDull;
  h.capacity = 1024;
  h.max_producers = 16;
  h.slot_size = sizeof(double);
  h.slot_align = alignof(double);
  h.total_bytes = 20480;
  EXPECT_EQ(runtime::ShmHeaderCrc(h), 0x65A9C5B5u);
}

// The read-only triage path behind `telemetry_dump --shm=<name>`:
// InspectShmSegment must surface the cursors, the reaper counters and a
// live producer's in-flight lease row without knowing the slot type, and
// must show the row freed again after a graceful detach.
TEST(ShmLeaseReclaimTest, InspectorSeesCursorsAndLiveLease) {
  // Named segment: the anonymous constructor unlinks at birth, which is
  // exactly what InspectShmSegment (attach-by-name) cannot see.
  const std::string seg =
      "/slick-inspector-test-" + std::to_string(::getpid());
  IntRing ring(seg, 8);
  auto producer = ring.AttachProducer();
  const int live[3] = {10, 11, 12};
  std::size_t pushed = 0;
  ASSERT_EQ(producer.TryPush(live, 3, &pushed), IntLease::Result::kOk);
  ASSERT_EQ(pushed, 3u);
  std::size_t claimed = 0;
  ASSERT_EQ(producer.TryBeginClaim(2, &claimed), IntLease::Result::kOk);
  ASSERT_EQ(claimed, 2u);

  const runtime::ShmSegmentInfo mid = runtime::InspectShmSegment(ring.name());
  ASSERT_TRUE(mid.ok) << mid.error;
  EXPECT_EQ(mid.capacity, ring.capacity());
  EXPECT_EQ(mid.slot_size, sizeof(int));
  EXPECT_FALSE(mid.closed);
  EXPECT_EQ(mid.head, 0u);
  EXPECT_EQ(mid.tail, 5u);  // 3 published + 2 claimed reservations
  const auto me = static_cast<uint64_t>(::getpid());
  bool found = false;
  for (const runtime::ShmLeaseInfo& l : mid.leases) {
    if (l.pid != me) continue;
    found = true;
    EXPECT_EQ(l.span_begin, 3u);
    EXPECT_EQ(l.span_end, 5u);
    EXPECT_EQ(l.span_state,
              static_cast<uint64_t>(runtime::LeaseSpan::kOwned));
    EXPECT_GT(l.heartbeat_ns, 0u);
    EXPECT_EQ(l.fenced_at_ns, 0u);
  }
  EXPECT_TRUE(found) << "live lease row missing from the inspection";

  ASSERT_EQ(producer.PublishClaimed(), 2u);
  producer.Detach();
  const runtime::ShmSegmentInfo after =
      runtime::InspectShmSegment(ring.name());
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.tail, 5u);
  for (const runtime::ShmLeaseInfo& l : after.leases) {
    EXPECT_NE(l.pid, me) << "detached row still attributed to this pid";
  }
  int out[8] = {};
  EXPECT_EQ(ring.try_pop_n(out, 8), 5u);
}

// A producer process that dies holding a claimed-but-unpublished span
// (and never detaches — _exit skips destructors) must be detected by the
// pid-liveness probe alone, its span tombstoned, and its lease row freed
// for the next attacher; the consumer skips the hole and keeps flowing.
TEST(ShmLeaseReclaimTest, DeadProducerIsReclaimedAndConsumerSkipsHole) {
  IntRing ring(64);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: publish one live batch, abandon a claimed span, die without
    // detaching. No gtest/stdio here — only lock-free ring operations
    // are fork-safe against the parent's state.
    auto producer = ring.AttachProducer();
    std::array<int, 8> batch{};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = static_cast<int>(i) + 1;
    }
    std::size_t pushed = 0;
    if (producer.TryPush(batch.data(), batch.size(), &pushed) !=
            IntLease::Result::kOk ||
        pushed != batch.size()) {
      ::_exit(2);
    }
    std::size_t claimed = 0;
    if (producer.TryBeginClaim(4, &claimed) != IntLease::Result::kOk ||
        claimed != 4) {
      ::_exit(3);
    }
    // Poison the abandoned span: these values must never be consumed.
    for (std::size_t i = 0; i < claimed; ++i) producer.claim_data()[i] = -1;
    const char byte = 'x';
    if (::write(fds[1], &byte, 1) != 1) ::_exit(4);
    ::_exit(0);
  }
  char byte = 0;
  ASSERT_EQ(::read(fds[0], &byte, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  ::close(fds[0]);
  ::close(fds[1]);

  // Effectively-infinite TTL: only the pid probe can justify this reap.
  const runtime::ShmReapStats reap =
      ring.ReapExpiredLeases(util::MonotonicNanos(), uint64_t{1} << 62);
  EXPECT_EQ(reap.leases_reclaimed, 1u);
  EXPECT_EQ(reap.slots_tombstoned, 4u);
  EXPECT_EQ(reap.zombie_fences, 0u);  // the holder was truly dead

  // The live batch drains; the tombstoned hole yields nothing.
  std::array<int, 16> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
  // Traffic beyond the hole flows, and the freed row re-attaches.
  auto fresh = ring.AttachProducer();
  ASSERT_TRUE(fresh.valid());
  const std::array<int, 3> more{100, 101, 102};
  std::size_t pushed = 0;
  ASSERT_EQ(fresh.TryPush(more.data(), more.size(), &pushed),
            IntLease::Result::kOk);
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 3u);
  EXPECT_EQ(out[0], 100);
  EXPECT_EQ(out[2], 102);
  EXPECT_TRUE(ring.empty());
  const runtime::ShmLeaseStats stats = ring.lease_stats();
  EXPECT_EQ(stats.leases_reclaimed, 1u);
  EXPECT_EQ(stats.slots_tombstoned, 4u);
  EXPECT_EQ(stats.zombie_fences, 0u);
}

// The zombie-resume race in miniature, single process, forged clock: a
// producer whose heartbeat went stale is fenced and repaired while still
// alive; its later publish must land NOTHING (the epoch gate plus the
// per-slot CAS both say so) and its next claim must report kFenced.
TEST(ShmLeaseReclaimTest, StaleHeartbeatZombiePublishLandsNothing) {
  IntRing ring(64);
  auto zombie = ring.AttachProducer();
  std::size_t claimed = 0;
  ASSERT_EQ(zombie.TryBeginClaim(4, &claimed), IntLease::Result::kOk);
  ASSERT_EQ(claimed, 4u);
  for (std::size_t i = 0; i < claimed; ++i) zombie.claim_data()[i] = -1;

  constexpr uint64_t kLeaseNs = 1'000'000;
  const runtime::ShmReapStats reap = ring.ReapExpiredLeases(
      util::MonotonicNanos() + 10 * kLeaseNs, kLeaseNs);
  EXPECT_EQ(reap.zombie_fences, 1u);      // fenced while the pid lives
  EXPECT_EQ(reap.slots_tombstoned, 4u);   // kOwned: repaired immediately
  EXPECT_EQ(reap.leases_reclaimed, 1u);

  EXPECT_EQ(zombie.PublishClaimed(), 0u);  // the zombie loses
  std::size_t n = 0;
  EXPECT_EQ(zombie.TryBeginClaim(4, &n), IntLease::Result::kFenced);

  // Live traffic flows around the hole; nothing poisoned comes out.
  const std::array<int, 3> live{5, 6, 7};
  EXPECT_EQ(ring.try_push_n(live.data(), live.size()), 3u);
  std::array<int, 8> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 3u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 6);
  EXPECT_EQ(out[2], 7);
  EXPECT_TRUE(ring.empty());

  // The fenced handle detaches as a no-op and the row is re-attachable.
  zombie.Detach();
  auto fresh = ring.AttachProducer();
  EXPECT_TRUE(fresh.valid());
}

// The kIntent state machine: a lease that crashed between recording
// intent and learning its CAS outcome gets ONE further lease period of
// grace after the fence (the span may belong to a live winner), and only
// then is repaired. Positions at or beyond tail — a CAS that never ran —
// are never tombstoned.
TEST(ShmLeaseReclaimTest, IntentSpanGetsGraceThenRepair) {
  IntRing ring(64);
  auto crashed = ring.AttachProducer();  // takes row 0
  // Manufacture the crash window: the tail advanced by a claim that was
  // never published, with row 0 recording kIntent over that span.
  std::size_t n = 0;
  int* span = ring.TryClaimPush(3, &n);
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(n, 3u);
  for (std::size_t i = 0; i < n; ++i) span[i] = -1;
  runtime::ShmLease& row = runtime::ShmRingTestPeer::Lease(ring, 0);
  row.span_begin.store(0, std::memory_order_relaxed);
  row.span_end.store(3, std::memory_order_relaxed);
  row.span_state.store(static_cast<uint64_t>(runtime::LeaseSpan::kIntent),
                       std::memory_order_release);

  constexpr uint64_t kLeaseNs = 1'000'000;
  const uint64_t t0 = util::MonotonicNanos() + 10 * kLeaseNs;
  // First pass: fence lands, repair is deferred.
  const runtime::ShmReapStats first = ring.ReapExpiredLeases(t0, kLeaseNs);
  EXPECT_EQ(first.zombie_fences, 1u);
  EXPECT_EQ(first.slots_tombstoned, 0u);
  EXPECT_EQ(first.leases_reclaimed, 0u);
  // Second pass inside the grace window: still deferred, no double fence.
  const runtime::ShmReapStats second =
      ring.ReapExpiredLeases(t0 + kLeaseNs / 2, kLeaseNs);
  EXPECT_EQ(second.zombie_fences, 0u);
  EXPECT_EQ(second.slots_tombstoned, 0u);
  EXPECT_EQ(second.leases_reclaimed, 0u);
  // Past the grace: the span is tombstoned and the row freed.
  const runtime::ShmReapStats third =
      ring.ReapExpiredLeases(t0 + 2 * kLeaseNs, kLeaseNs);
  EXPECT_EQ(third.slots_tombstoned, 3u);
  EXPECT_EQ(third.leases_reclaimed, 1u);

  // The consumer flows past the repaired hole.
  const std::array<int, 2> live{41, 42};
  EXPECT_EQ(ring.try_push_n(live.data(), live.size()), 2u);
  std::array<int, 8> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 2u);
  EXPECT_EQ(out[0], 41);
  EXPECT_EQ(out[1], 42);
  EXPECT_TRUE(ring.empty());
}

// A kIntent span whose tail CAS never ran leaves tail untouched; the
// repair must skip every position at or beyond tail so a later winner's
// slots are not pre-tombstoned.
TEST(ShmLeaseReclaimTest, IntentSpanBeyondTailTombstonesNothing) {
  IntRing ring(64);
  auto crashed = ring.AttachProducer();
  runtime::ShmLease& row = runtime::ShmRingTestPeer::Lease(ring, 0);
  row.span_begin.store(0, std::memory_order_relaxed);
  row.span_end.store(4, std::memory_order_relaxed);  // tail is still 0
  row.span_state.store(static_cast<uint64_t>(runtime::LeaseSpan::kIntent),
                       std::memory_order_release);

  constexpr uint64_t kLeaseNs = 1'000'000;
  const uint64_t t0 = util::MonotonicNanos() + 10 * kLeaseNs;
  (void)ring.ReapExpiredLeases(t0, kLeaseNs);  // fence
  const runtime::ShmReapStats repair =
      ring.ReapExpiredLeases(t0 + 2 * kLeaseNs, kLeaseNs);
  EXPECT_EQ(repair.slots_tombstoned, 0u);
  EXPECT_EQ(repair.leases_reclaimed, 1u);

  // The untouched positions serve fresh pushes as slot zero onward.
  const std::array<int, 3> live{9, 10, 11};
  EXPECT_EQ(ring.try_push_n(live.data(), live.size()), 3u);
  std::array<int, 8> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 3u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[2], 11);
}

// ---------------------------------------------------------------------
// Fault-injection legs (the CI chaos job): seeded SIGKILLs and stalls.
// ---------------------------------------------------------------------

class ShmLeaseFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::Enabled()) {
      GTEST_SKIP() << "built without SLICK_FAULT_INJECTION";
    }
    fault::DisarmAll();
  }
  void TearDown() override { fault::DisarmAll(); }
};

// The full zombie-resume schedule in real time: the producer stalls far
// past its lease inside PublishClaimed (kShmZombieResume), the reaper
// fences and repairs it mid-stall, and the resumed publish lands zero.
TEST_F(ShmLeaseFaultInjectionTest, ZombieResumeLosesPublishRace) {
  IntRing ring(64);
  fault::Arm(fault::Point::kShmZombieResume, /*lane=*/0, /*nth=*/1);
  std::atomic<int64_t> landed{-1};
  std::thread producer([&ring, &landed] {
    auto p = ring.AttachProducer();
    std::size_t claimed = 0;
    if (p.TryBeginClaim(4, &claimed) != IntLease::Result::kOk ||
        claimed != 4) {
      landed.store(-2, std::memory_order_release);
      return;
    }
    for (std::size_t i = 0; i < claimed; ++i) p.claim_data()[i] = -1;
    // Fires the armed stall (~10x the lease TTL), then tries to publish.
    landed.store(static_cast<int64_t>(p.PublishClaimed()),
                 std::memory_order_release);
  });
  // Reap on a fast cadence until the stalled lease is fenced + reclaimed.
  constexpr uint64_t kLeaseNs = 5'000'000;
  uint64_t reclaimed = 0;
  const uint64_t deadline = util::MonotonicNanos() + 20'000'000'000ull;
  while (reclaimed == 0 && util::MonotonicNanos() < deadline) {
    reclaimed +=
        ring.ReapExpiredLeases(util::MonotonicNanos(), kLeaseNs)
            .leases_reclaimed;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(landed.load(std::memory_order_acquire), 0);
  const runtime::ShmLeaseStats stats = ring.lease_stats();
  EXPECT_EQ(stats.zombie_fences, 1u);
  EXPECT_EQ(stats.slots_tombstoned, 4u);
  // Only fresh data comes out of the repaired ring.
  const std::array<int, 2> live{7, 8};
  EXPECT_EQ(ring.try_push_n(live.data(), live.size()), 2u);
  std::array<int, 8> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
}

// kShmStallHeartbeat latches RefreshLease off permanently — the wedged
// producer's lease expires by TTL even though its pid stays alive, and
// its next claim is fenced.
TEST_F(ShmLeaseFaultInjectionTest, StalledHeartbeatExpiresByTtl) {
  IntRing ring(64);
  auto p = ring.AttachProducer();
  const std::array<int, 4> batch{1, 2, 3, 4};
  std::size_t pushed = 0;
  ASSERT_EQ(p.TryPush(batch.data(), batch.size(), &pushed),
            IntLease::Result::kOk);
  fault::Arm(fault::Point::kShmStallHeartbeat, /*lane=*/0, /*nth=*/1);
  p.RefreshLease();  // latches: refreshes stop from here on

  constexpr uint64_t kLeaseNs = 1'000'000;
  const runtime::ShmReapStats reap = ring.ReapExpiredLeases(
      util::MonotonicNanos() + 10 * kLeaseNs, kLeaseNs);
  EXPECT_EQ(reap.zombie_fences, 1u);
  EXPECT_EQ(reap.leases_reclaimed, 1u);
  EXPECT_EQ(reap.slots_tombstoned, 0u);  // span was idle: all published
  std::size_t n = 0;
  EXPECT_EQ(p.TryBeginClaim(2, &n), IntLease::Result::kFenced);
  // The already-published batch is untouched by the reclaim.
  std::array<int, 8> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

// ---------------------------------------------------------------------
// The fork/SIGKILL chaos grid: {die-before-claim, die-mid-span,
// die-before-publish} x {1, 2, 4} producer processes against a live
// ParallelShardedEngine over shm rings. The engine must never wedge, the
// drained per-shard answers must be bit-identical to serial oracles over
// each shard's surviving sub-stream, and leases_reclaimed must equal the
// injected kills exactly.
// ---------------------------------------------------------------------

using ChaosParam = std::tuple<fault::Point, std::size_t>;

class ShmLeaseProcessKillChaos : public ::testing::TestWithParam<ChaosParam> {
 protected:
  void SetUp() override {
    if (!fault::Enabled()) {
      GTEST_SKIP() << "built without SLICK_FAULT_INJECTION";
    }
    fault::DisarmAll();
  }
  void TearDown() override { fault::DisarmAll(); }
};

constexpr std::size_t kChaosBatches = 6;   // batches each producer sends
constexpr std::size_t kChaosBatchLen = 8;  // slots per batch (= the window)
constexpr std::size_t kChaosMidSlot = 4;   // 1-based kill slot for mid-span

int64_t ChaosValue(std::size_t p, std::size_t b, std::size_t i) {
  return static_cast<int64_t>((p + 1) * 1'000'000 + b * 1'000 + i);
}

/// Kill batch for producer p: staggered so every lane dies at a distinct
/// seeded point, always leaving at least one full window of survivors.
std::size_t KillBatch(std::size_t p) { return p + 2; }

/// The values producer p lands before its kill, per the fault-point
/// semantics (see the Point enum docs): full batches below KillBatch,
/// plus — for mid-span — the slots published before the armed slot.
std::vector<int64_t> SurvivorStream(fault::Point point, std::size_t p) {
  std::vector<int64_t> lived;
  const std::size_t k = KillBatch(p);
  for (std::size_t b = 1; b < k; ++b) {
    for (std::size_t i = 0; i < kChaosBatchLen; ++i) {
      lived.push_back(ChaosValue(p, b, i));
    }
  }
  if (point == fault::Point::kShmDieMidSpan) {
    for (std::size_t i = 0; i + 1 < kChaosMidSlot; ++i) {
      lived.push_back(ChaosValue(p, k, i));
    }
  }
  return lived;
}

/// Slots the reaper must tombstone for producer p's abandoned span.
std::size_t ExpectedTombstones(fault::Point point) {
  switch (point) {
    case fault::Point::kShmDieBeforeClaim:
      return 0;  // the CAS never ran: nothing beyond tail to repair
    case fault::Point::kShmDieMidSpan:
      return kChaosBatchLen - (kChaosMidSlot - 1);
    default:
      return kChaosBatchLen;  // die-before-publish: the whole span
  }
}

TEST_P(ShmLeaseProcessKillChaos, EngineDrainsBitIdenticalAfterSigkills) {
  const auto [point, producers] = GetParam();
  using Agg = core::SlickDequeInv<ops::SumInt>;
  using Engine = runtime::ParallelShardedEngine<Agg, runtime::ShmRing>;
  using Lease = runtime::ShmRing<int64_t>::LeaseProducer;
  const typename Engine::Options opts = {
      // Larger than any lane's total pushes: a full-ring retry would
      // shift the seeded claim ordinals, so make kFull unreachable.
      .ring_capacity = 256,
      .batch = 4,
      .backpressure = runtime::Backpressure::kBlock,
      .checkpoint_interval = 0,
      .lease_ns = 50'000'000};
  Engine engine(kChaosBatchLen * producers, producers, opts);

  std::vector<pid_t> kids;
  for (std::size_t p = 0; p < producers; ++p) {
    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      // Child: arm our own injector copy (fork gave us the parent's,
      // which SetUp disarmed), attach to our shard's shm ring, and
      // stream batches until the armed point SIGKILLs us. Fork-safety:
      // only lock-free ring ops, no allocation, no stdio.
      const std::size_t k = KillBatch(p);
      uint64_t nth = 0;
      switch (point) {
        case fault::Point::kShmDieMidSpan:
          nth = (k - 1) * kChaosBatchLen + kChaosMidSlot;
          break;
        default:  // per-claim / per-publish points fire once per batch
          nth = k;
          break;
      }
      fault::Arm(point, /*lane=*/p, nth);
      auto producer = engine.shard_ring(p).AttachProducer();
      std::array<int64_t, kChaosBatchLen> batch{};
      for (std::size_t b = 1; b <= kChaosBatches; ++b) {
        for (std::size_t i = 0; i < kChaosBatchLen; ++i) {
          batch[i] = ChaosValue(p, b, i);
        }
        std::size_t pushed = 0;
        if (producer.TryPush(batch.data(), batch.size(), &pushed) !=
            Lease::Result::kOk) {
          ::_exit(3);  // full/fenced: the schedule never allows either
        }
      }
      ::_exit(4);  // the armed fault never fired — parent fails on this
    }
    kids.push_back(child);
  }

  // Every child must die by its own seeded SIGKILL. The waitpid also
  // reaps the zombie process entries, so the reaper's pid probe sees
  // ESRCH and needs no heartbeat staleness for the kOwned spans.
  for (pid_t kid : kids) {
    int status = 0;
    ASSERT_EQ(::waitpid(kid, &status, 0), kid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child survived its armed kill";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  }

  std::size_t expected_processed = 0;
  for (std::size_t p = 0; p < producers; ++p) {
    expected_processed += SurvivorStream(point, p).size();
  }

  // Drive the supervisor-path reaper until every kill is reclaimed and
  // every surviving slot has been slid — the engine must not wedge.
  const uint64_t deadline = util::MonotonicNanos() + 30'000'000'000ull;
  for (;;) {
    engine.SupervisePoll();
    const telemetry::RuntimeSnapshot snap = engine.snapshot();
    uint64_t reclaimed = 0;
    for (const telemetry::ShardSnapshot& s : snap.shards) {
      reclaimed += s.leases_reclaimed;
    }
    if (reclaimed == producers &&
        engine.stats().processed == expected_processed) {
      break;
    }
    ASSERT_LT(util::MonotonicNanos(), deadline)
        << "engine wedged: reclaimed=" << reclaimed
        << " processed=" << engine.stats().processed << "/"
        << expected_processed;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Quiescent cut: per-shard answers bit-identical to serial oracles
  // over each shard's surviving sub-stream, and the repair telemetry
  // accounts for every kill exactly.
  const telemetry::RuntimeSnapshot snap = engine.snapshot();
  uint64_t total_tombstoned = 0;
  uint64_t total_zombie_fences = 0;
  for (std::size_t p = 0; p < producers; ++p) {
    window::NaiveWindow<ops::SumInt> oracle(kChaosBatchLen);
    const std::vector<int64_t> lived = SurvivorStream(point, p);
    for (int64_t v : lived) oracle.slide(ops::SumInt::lift(v));
    ASSERT_EQ(engine.shard(p).query(), oracle.query()) << "shard " << p;
    EXPECT_EQ(snap.shards[p].tuples_out, lived.size()) << "shard " << p;
    EXPECT_EQ(snap.shards[p].leases_reclaimed, 1u) << "shard " << p;
    total_tombstoned += snap.shards[p].slots_tombstoned;
    total_zombie_fences += snap.shards[p].zombie_fences;
  }
  EXPECT_EQ(total_tombstoned, ExpectedTombstones(point) * producers);
  EXPECT_EQ(total_zombie_fences, 0u);  // every fenced holder was dead
  EXPECT_EQ(engine.stats().restarts, 0u);  // the workers never died
  EXPECT_EQ(engine.stats().dropped, 0u);
  engine.stop();
}

std::string ChaosName(const ::testing::TestParamInfo<ChaosParam>& info) {
  const auto [point, producers] = info.param;
  const char* name = "DieBeforePublish";
  if (point == fault::Point::kShmDieBeforeClaim) name = "DieBeforeClaim";
  if (point == fault::Point::kShmDieMidSpan) name = "DieMidSpan";
  return std::string(name) + "x" + std::to_string(producers);
}

INSTANTIATE_TEST_SUITE_P(
    KillGrid, ShmLeaseProcessKillChaos,
    ::testing::Combine(
        ::testing::Values(fault::Point::kShmDieBeforeClaim,
                          fault::Point::kShmDieMidSpan,
                          fault::Point::kShmDieBeforePublish),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4})),
    ChaosName);

}  // namespace
}  // namespace slick
