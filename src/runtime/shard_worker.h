#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "ops/counting.h"
#include "runtime/fault.h"
#include "runtime/spsc_ring.h"
#include "telemetry/counters.h"
#include "telemetry/histogram.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/serde.h"
#include "window/aggregator.h"

namespace slick::runtime {

/// Lifecycle of a shard worker thread, release-published by the worker at
/// its exit edges and acquire-read by the supervisor (DESIGN.md §12).
enum class WorkerState : uint32_t {
  kRunning = 0,  ///< thread live (or about to be spawned)
  kStopped,      ///< clean exit: ring closed and fully drained
  kKilled,       ///< fail-stop exit mid-drain (injected crash)
};

/// Where an injected worker crash lands relative to the batch being
/// drained — the two sides of the slide, so recovery is exercised both
/// with and without the aggregator having absorbed the doomed batch.
enum class KillPoint : uint32_t {
  kBeforeSlide = 0,  ///< span claimed, aggregator untouched
  kAfterSlide,       ///< aggregator updated, nothing published/released
};

/// One shard of the parallel runtime: a dedicated thread that drains its
/// ring in batches and drives any FixedWindowAggregator (SlickDeque
/// Inv/Non-Inv, TwoStacks-via-Windowed, DABA-via-Windowed, Naive, ...).
///
/// Synchronization contract with the coordinator (DESIGN.md §12):
///  * Shard ownership: one atomic word on its own cache line. Only its
///    holder may claim from the ring or touch `aggregator()`. The worker
///    takes it with one CAS per drained batch and never holds it while it
///    waits for data (RingCore::AwaitPop claims nothing). On unsupervised
///    engines callers take it too: the coordinator at its epoch barrier
///    (DrainOnCaller), which drains everything claimable on its own thread,
///    and a producer handle right after its publish when the worker sleeps
///    (DrainOnProducer), which drains the backlog it found. Every holder
///    runs the same per-batch body (DrainBatch) and hands the shard back.
///    The acquire CAS and the release hand-back order every holder's slides
///    before the next holder's.
///  * After every drained batch the holder release-stores the cumulative
///    count into `processed()`; a coordinator that acquire-loads
///    `processed()` and sees it equal to the number of elements routed here
///    therefore observes all slides, and knows no holder can slide again
///    until more is pushed. That quiescent read is the runtime's
///    epoch-snapshot edge.
///  * The coordinator's post-snapshot pushes release-publish the ring tail,
///    and the holder acquire-loads it before sliding, so snapshot reads and
///    later slides never race (the edge the TSan CI job machine-checks).
///
/// Fault tolerance (DESIGN.md §12) — active when `checkpoint_interval > 0`:
///  * The worker defers ReleasePop: ring slots stay owned by the consumer
///    until their contents are covered by a CRC32-framed checkpoint of the
///    aggregator (util::SaveStateFramed + the processed count), validated
///    by re-reading the frame before a single slot is released. The
///    unreleased span [head_, tail_) is therefore always a complete replay
///    log for the state since the last durable checkpoint.
///  * A crash (KillWorker test hook, or the SLICK_FAULT_INJECTION kill
///    points) fail-stops the thread mid-drain with state() == kKilled. The
///    supervisor then calls RecoverAndRestart(): join the dead thread,
///    restore the last good checkpoint (or a fresh aggregator when none
///    exists — nothing was released before the first checkpoint), rewind
///    the ring's claim cursor, and respawn. Replaying the unreleased span
///    through the same BulkSlide path makes the recovered state
///    bit-identical to the no-fault run.
///  * A checkpoint that fails validation (torn/corrupt/alloc failure) is
///    discarded and counted; slots stay unreleased and the next batch
///    retries, trading ring backpressure for recoverability.
///
/// Ring selection: the second template parameter picks the shard's inbound
/// channel — SpscRing (default; the single router thread feeds the shard)
/// or MpmcRing (N producer threads / the ingest server's event loops feed
/// it directly, no router hop). The worker code is ring-agnostic: both
/// rings share the claim/release/ResetClaims consumer API (pinned by
/// tests/ring_conformance_test.cc), so zero-copy drains and supervised
/// recovery replay are identical either way.
template <typename Agg, template <typename> class Ring = SpscRing>
  requires window::FixedWindowAggregator<Agg>
class ShardWorker {
 public:
  using value_type = typename Agg::value_type;

  /// True when the aggregator supports SaveState/LoadState — required for
  /// supervised mode (checkpoint_interval > 0).
  static constexpr bool kCheckpointable = util::Checkpointable<Agg>;

  ShardWorker(std::size_t window, std::size_t ring_capacity, std::size_t batch,
              std::size_t checkpoint_interval = 0, std::size_t shard_index = 0)
      : ring_(ring_capacity),
        batch_(batch < 1 ? 1 : batch),
        checkpoint_interval_(checkpoint_interval),
        shard_index_(shard_index),
        window_(window),
        agg_(window) {
    SLICK_CHECK(checkpoint_interval == 0 || kCheckpointable,
                "checkpoint_interval > 0 needs SaveState/LoadState support");
    // A checkpoint (and its ReleasePop) must be reachable before the ring
    // can fill with unreleased slots, or producer and consumer deadlock.
    SLICK_CHECK(checkpoint_interval <= ring_.capacity() / 2,
                "checkpoint_interval must be at most half the ring capacity");
    ring_.set_fault_lane(shard_index);
  }

  ~ShardWorker() { Stop(); }

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Spawns the worker thread. Must be called exactly once before pushes.
  void Start() {
    SLICK_CHECK(!thread_.joinable(), "worker already started");
    state_.store(static_cast<uint32_t>(WorkerState::kRunning),
                 std::memory_order_release);
    thread_ = std::thread([this] { Run(); });
  }

  /// Graceful shutdown: closes the ring, lets the worker drain every
  /// element already routed to it, then joins. Idempotent. (A worker that
  /// is already dead joins immediately; its unprocessed backlog stays in
  /// the ring — the supervised engine drains via recovery before closing.)
  void Stop() {
    ring_.close();
    if (thread_.joinable()) thread_.join();
  }

  Ring<value_type>& ring() { return ring_; }

  /// Cumulative number of elements slid into the aggregator
  /// (release-published per batch; pair with an acquire load via this call).
  uint64_t processed() const {
    return processed_.load(std::memory_order_acquire);
  }

  /// Caller-runs drain, the engine's epoch barrier on unsupervised engines:
  /// if no thread holds the shard, takes it, drains everything claimable on
  /// the calling thread, and hands it back. Returns false when the worker
  /// holds the shard — it is awake then and finishes the backlog itself.
  /// Supervised engines never call this: their restart protocol owns the
  /// consumer role.
  bool DrainOnCaller() {
    SLICK_DCHECK(!Supervised(), "caller-runs drain on a supervised shard");
    if (!TryOwn(Holder::kCaller)) return false;
    const uint64_t batches = DrainHeld(SIZE_MAX);
    Disown();
    counters_.coordinator_batches.Add(batches);
    return true;
  }

  /// Producer-runs admission (DESIGN.md §12.6), called by a producer handle
  /// of an unsupervised engine right after it published to this shard's
  /// ring with DataWake::kCoalesced. When the worker is parked and no
  /// thread holds the shard, the producer takes it and drains, on its own
  /// thread, at most the backlog it found when it took it, then hands it
  /// back — a batch slid here costs less than the wake-up it replaces.
  /// Every other case wakes the worker: one that is awake (the gate makes
  /// no syscall), a shard another thread holds (that holder's bound may
  /// exclude this publish), and backlog left beyond the bound, so one
  /// producer is never held draining other producers' streams.
  void DrainOnProducer() {
    SLICK_DCHECK(!Supervised(), "producer-runs drain on a supervised shard");
    if (ring_.data_waiters() > 0 && TryOwn(Holder::kCaller)) {
      const std::size_t bound = ring_.unconsumed();
      const uint64_t batches = DrainHeld(bound);
      // Checked before the hand-back. A publish after this check belongs to
      // its own producer: that producer drains it once the shard is back,
      // or finds the shard still held and wakes the worker.
      const bool more = ring_.pop_ready_or_settled();
      Disown();
      counters_.producer_batches.Add(batches);
      if (!more) return;
    }
    ring_.WakeConsumer();
  }

  /// Worker lifecycle, for the supervisor (acquire pairs with the worker's
  /// release store at its exit edges).
  WorkerState state() const {
    return static_cast<WorkerState>(state_.load(std::memory_order_acquire));
  }

  /// Nanosecond timestamp of the worker's last drain-loop iteration — the
  /// supervisor's stall detector input. 0 until the thread first runs.
  uint64_t heartbeat_ns() const { return heartbeat_.Get(); }

  /// Arms a deterministic fail-stop: the worker dies at `point` while
  /// draining its `nth_batch`-th claimed batch (1-based, cumulative across
  /// restarts). Always compiled — this is the recovery tests' crash switch;
  /// the SLICK_FAULT_INJECTION build adds seeded schedule variants on top.
  /// One shot: the trigger disarms when it fires.
  void KillWorker(KillPoint point, uint64_t nth_batch) {
    SLICK_CHECK(nth_batch >= 1, "kill batch ordinal is 1-based");
    auto& trigger =
        point == KillPoint::kBeforeSlide ? kill_before_ : kill_after_;
    // relaxed: a kill request is advisory — the worker's relaxed poll sees
    // it on its next batch; no payload rides on this store.
    trigger.store(nth_batch, std::memory_order_relaxed);
  }

  /// Restores the shard after a fail-stop and respawns the thread. Must be
  /// called with state() == kKilled, from the supervising thread only; the
  /// join/spawn pair orders every access to worker-owned state. Returns the
  /// number of elements slid twice: published since the restored checkpoint
  /// and about to be re-slid from the ring. A batch slid but not yet
  /// *published* at death is also re-slid but not counted — from out here it
  /// is indistinguishable from one never slid, so `replayed` is a lower
  /// bound, tight to within one batch.
  uint64_t RecoverAndRestart() {
    SLICK_CHECK(state() == WorkerState::kKilled,
                "RecoverAndRestart on a live worker");
    SLICK_CHECK(thread_.joinable(), "killed worker has no thread");
    thread_.join();
    uint64_t replayed = 0;
    if constexpr (kCheckpointable) {
      // relaxed: the join above ordered every store the dead thread made.
      const uint64_t observed = processed_.load(std::memory_order_relaxed);
      uint64_t restored = 0;
      if (!last_good_.empty()) {
        std::istringstream frame(last_good_);
        restored = RestoreCheckpoint(&frame);
      } else {
        // No checkpoint yet => nothing was ever released: replaying the
        // whole ring from a fresh aggregator reproduces the run exactly.
        agg_ = Agg(window_);
      }
      SLICK_CHECK(observed >= restored,
                  "checkpoint is ahead of the published processed count");
      replayed = observed - restored;
      ring_.ResetClaims();  // the rewound claims replay the unreleased span
      last_ckpt_processed_ = restored;
      // relaxed: the dead thread was joined above and the respawn below
      // orders this store before the successor's first CAS.
      owner_.store(static_cast<uint32_t>(Holder::kNone),
                   std::memory_order_relaxed);
      processed_.store(restored, std::memory_order_release);
      counters_.tuples_out.Set(restored);
      counters_.replayed.Add(replayed);
      counters_.restarts.Add(1);
    } else {
      SLICK_CHECK(false, "recovery requires a checkpointable aggregator");
    }
    state_.store(static_cast<uint32_t>(WorkerState::kRunning),
                 std::memory_order_release);
    thread_ = std::thread([this] { Run(); });
    return replayed;
  }

  /// The shard's aggregator. Safe for the coordinator to read only at a
  /// quiescent point (processed() == elements routed); see class comment.
  const Agg& aggregator() const { return agg_; }
  Agg& aggregator() { return agg_; }

  /// Always-on flow telemetry. tuples_out/batches are bumped once per
  /// drained batch (relaxed), so the per-element overhead is a fraction of
  /// an atomic add; any thread may read concurrently with relaxed loads.
  const telemetry::ShardCounters& counters() const { return counters_; }
  telemetry::ShardCounters& counters() { return counters_; }

  /// Per-batch drain latency (time to slide one popped batch into the
  /// aggregator), recorded wait-free by the worker; mergeable across shards
  /// into the runtime-wide distribution.
  const telemetry::LatencyHistogram& batch_latency() const {
    return batch_latency_;
  }

  /// Distribution of drained-batch sizes (elements per ClaimPop span) —
  /// shows how much of the configured batch knob the ring actually delivers
  /// under the current load. Same wait-free recording as batch_latency().
  const telemetry::LatencyHistogram& batch_sizes() const {
    return batch_sizes_;
  }

 private:
  /// True when the shard op is the thread-attributed counting wrapper
  /// (ops::ThreadCountingOp): the worker then folds its thread-local ⊕/⊖
  /// tallies into the shard telemetry after every batch, unifying the
  /// paper's Table-1 metric with the runtime's live counters.
  static constexpr bool kCountedOp = requires {
    requires std::is_same_v<typename Agg::op_type::counter_type,
                            ops::ThreadLocalOpCounter>;
  };

  bool Supervised() const { return checkpoint_interval_ > 0; }

  /// One relaxed load per batch: did a kill trigger fire for this batch
  /// ordinal (or a seeded fault-injection kill for this point)?
  bool ShouldDie(std::atomic<uint64_t>& trigger, uint64_t batch_ordinal,
                 fault::Point point) {
    // relaxed: the trigger carries no payload; a stale read only delays
    // the injected crash by one batch, which no invariant depends on.
    const uint64_t t = trigger.load(std::memory_order_relaxed);
    if (t != 0 && batch_ordinal >= t) {
      // relaxed: one-shot disarm, same reasoning as the load above.
      trigger.store(0, std::memory_order_relaxed);
      return true;
    }
    return fault::Fire(point, shard_index_);
  }

  /// Who holds the shard's ownership word: nobody, the worker, or a caller
  /// (the coordinator's epoch barrier or a producer handle).
  enum class Holder : uint32_t { kNone = 0, kWorker, kCaller };

  /// What one DrainBatch call did.
  enum class Drained { kEmpty, kBatch, kDied };

  SLICK_NODISCARD SLICK_REALTIME bool TryOwn(Holder who) {
    auto none = static_cast<uint32_t>(Holder::kNone);
    // acquire on success: the previous holder's slides, releases and
    // processed publish happen-before ours. relaxed on failure: nothing
    // is read on its strength.
    return owner_.compare_exchange_strong(none, static_cast<uint32_t>(who),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  SLICK_REALTIME void Disown() {
    // release: hands this holder's aggregator writes to the next holder.
    owner_.store(static_cast<uint32_t>(Holder::kNone),
                 std::memory_order_release);
  }

  SLICK_REALTIME_ALLOW(
      "contended ownership only: the coordinator or a producer is draining "
      "this shard; the worker yields until it hands the shard back")
  static void AwaitHandBack() { std::this_thread::yield(); }

  /// Drains up to `bound` elements on the calling thread, which holds the
  /// shard; returns the batches drained.
  SLICK_REALTIME uint64_t DrainHeld(std::size_t bound) {
    // relaxed: only the holder writes processed_ (see DrainBatch).
    const uint64_t start = processed_.load(std::memory_order_relaxed);
    uint64_t batches = 0;
    for (std::size_t done = 0; done < bound;
         done = static_cast<std::size_t>(
             processed_.load(std::memory_order_relaxed) - start)) {
      if (DrainBatch(Holder::kCaller, bound - done) != Drained::kBatch) break;
      ++batches;
    }
    return batches;
  }

  /// The per-batch body, run by whichever thread holds the shard: claim a
  /// contiguous ring span of at most `max` elements and feed it straight
  /// into the aggregator's batch entry point (no bounce buffer), release,
  /// publish `processed`, then the counters and histograms. Injected kills
  /// fire on the worker only.
  SLICK_REALTIME Drained DrainBatch(Holder who, std::size_t max = SIZE_MAX) {
    std::size_t n = 0;
    value_type* span = ring_.TryClaimPop(max < batch_ ? max : batch_, &n);
    if (span == nullptr) return Drained::kEmpty;
    const bool worker = who == Holder::kWorker;
    ++batches_drained_;
    if (worker && ShouldDie(kill_before_, batches_drained_,
                            fault::Point::kWorkerKillBeforeSlide)) {
      Die();
      return Drained::kDied;
    }
    // The thread-local ⊕/⊖ tallies are per OS thread, so fold this batch's
    // delta on whichever thread drained it: op counts stay exact.
    using Tally = ops::ThreadLocalOpCounter;
    uint64_t combines0 = 0, inverses0 = 0;
    if constexpr (kCountedOp) {
      combines0 = Tally::combines;
      inverses0 = Tally::inverses;
    }
    const uint64_t t0 = util::MonotonicNanos();
    window::BulkSlide(agg_, span, n);
    batch_latency_.Record(util::MonotonicNanos() - t0);
    if (worker && ShouldDie(kill_after_, batches_drained_,
                            fault::Point::kWorkerKillAfterSlide)) {
      Die();
      return Drained::kDied;
    }
    // relaxed: only the holder writes processed_, and the ownership word
    // orders successive holders.
    const uint64_t done = processed_.load(std::memory_order_relaxed) + n;
    if (Supervised()) {
      // Slots stay claimed until a validated checkpoint covers them; the
      // unreleased span is the crash-replay log.
      CheckpointIfDue(done);
    } else {
      // Release only after the slide: the moment the head cursor moves
      // the router may overwrite the span.
      ring_.ReleasePop(n);
    }
    batch_sizes_.Record(n);
    processed_.store(done, std::memory_order_release);
    counters_.tuples_out.Add(n);
    counters_.batches.Add(1);
    if constexpr (kCountedOp) {
      counters_.combines.Add(Tally::combines - combines0);
      counters_.inverses.Add(Tally::inverses - inverses0);
    }
    return Drained::kBatch;
  }

  /// The worker loop: take the shard, drain one batch, hand it back; when
  /// nothing is claimable, wait for data without holding the shard.
  SLICK_REALTIME void Run() {
    for (;;) {
      heartbeat_.Set(util::MonotonicNanos());
      // Retry a due-but-failed checkpoint before a wait that might park:
      // a transient failure (alloc, corruption) must not strand the
      // unreleased span until the next batch happens to arrive.
      if (Supervised()) {
        // relaxed: a supervised shard's only holder is this thread.
        CheckpointIfDue(processed_.load(std::memory_order_relaxed));
      }
      if (!TryOwn(Holder::kWorker)) {
        AwaitHandBack();
        continue;
      }
      const Drained drained = DrainBatch(Holder::kWorker);
      Disown();
      if (drained == Drained::kDied) return;
      if (drained == Drained::kBatch) continue;
      // An empty poll is counted as an idle poll instead of polluting the
      // batch-size distribution with zero-length entries (ingest benches
      // spend most polls idle at low producer counts).
      counters_.idle_polls.Add(1);
      if (!ring_.AwaitPop()) break;  // closed and fully drained
    }
    // Clean close: everything drained is final — hand the replay log back.
    if (Supervised()) {
      // relaxed: a supervised shard's only holder is this thread.
      const auto unreleased = static_cast<std::size_t>(
          processed_.load(std::memory_order_relaxed) - last_ckpt_processed_);
      if (unreleased > 0) ring_.ReleasePop(unreleased);
    }
    state_.store(static_cast<uint32_t>(WorkerState::kStopped),
                 std::memory_order_release);
  }

  /// Supervised shards: every slot slid since the last checkpoint is still
  /// claimed, so `done - last_ckpt_processed_` is the unreleased span. Once
  /// it reaches the interval, checkpoints and, if the frame validates,
  /// releases it. The constructor caps the interval at half the ring, so a
  /// ring full of claimed, unreleased slots is always due and this check
  /// alone keeps the ring live (DESIGN.md §12.3).
  SLICK_REALTIME void CheckpointIfDue(uint64_t done) {
    const auto unreleased =
        static_cast<std::size_t>(done - last_ckpt_processed_);
    if (unreleased >= checkpoint_interval_ && TakeCheckpoint(done)) {
      ring_.ReleasePop(unreleased);
    }
  }

  /// Fail-stop: abandon the claimed span, publish nothing, flag the
  /// supervisor. Simulates a worker crash at an arbitrary drain point.
  void Die() {
    state_.store(static_cast<uint32_t>(WorkerState::kKilled),
                 std::memory_order_release);
  }

  /// Serializes {tag, processed, aggregator} into a CRC32 frame, validates
  /// it by re-reading, and commits it as the durable checkpoint. Returns
  /// false (counting a failure, releasing nothing) when serialization or
  /// validation fails — including the injected alloc-fail and corruption
  /// faults, which land exactly like real torn writes.
  SLICK_REALTIME_ALLOW(
      "checkpoint cadence: serializes aggregator state into a CRC-"
      "framed buffer once per checkpoint_interval_ batches — amortized "
      "far off the per-tuple path, and only in supervised mode")
  bool TakeCheckpoint(uint64_t done) {
    if constexpr (kCheckpointable) {
      if (fault::Fire(fault::Point::kCheckpointAllocFail, shard_index_)) {
        counters_.checkpoint_failures.Add(1);
        return false;
      }
      std::ostringstream payload;
      util::WriteTag(payload, kCheckpointTag, 1);
      util::WritePod<uint64_t>(payload, done);
      agg_.SaveState(payload);
      std::ostringstream framed;
      util::WriteFramed(framed, payload.str());
      std::string frame = framed.str();
      if (fault::Fire(fault::Point::kCheckpointCorrupt, shard_index_)) {
        fault::CorruptOneBit(&frame);
      }
      // Validate before commit: a checkpoint that cannot be restored must
      // never unlock the release of its covered ring slots.
      std::istringstream reread(frame);
      std::string verified;
      if (util::ReadFramed(reread, &verified) != util::FrameError::kOk) {
        counters_.checkpoint_failures.Add(1);
        return false;
      }
      last_good_ = std::move(frame);
      last_ckpt_processed_ = done;
      counters_.checkpoints.Add(1);
      return true;
    } else {
      SLICK_CHECK(false, "checkpoint on a non-checkpointable aggregator");
      return false;
    }
  }

  /// Restores agg_ + the processed count from a validated frame. The frame
  /// was CRC-checked at write time, so any failure here is a logic bug, not
  /// bit rot — hence hard SLICK_CHECKs rather than soft errors.
  uint64_t RestoreCheckpoint(std::istream* frame) {
    if constexpr (kCheckpointable) {
      std::string payload;
      SLICK_CHECK(util::ReadFramed(*frame, &payload) == util::FrameError::kOk,
                  "stored checkpoint frame failed validation");
      std::istringstream body(payload);
      SLICK_CHECK(util::ExpectTag(body, kCheckpointTag, 1),
                  "stored checkpoint has a foreign tag");
      uint64_t done = 0;
      SLICK_CHECK(util::ReadPod(body, &done),
                  "stored checkpoint truncated before the processed count");
      SLICK_CHECK(agg_.LoadState(body),
                  "stored checkpoint rejected by the aggregator");
      return done;
    } else {
      SLICK_CHECK(false, "restore on a non-checkpointable aggregator");
      return 0;
    }
  }

  static constexpr uint32_t kCheckpointTag =
      util::MakeTag('S', 'C', 'K', 'P');

  Ring<value_type> ring_;
  const std::size_t batch_;
  const std::size_t checkpoint_interval_;  // tuples per checkpoint; 0 = off
  const std::size_t shard_index_;          // fault-injection lane
  const std::size_t window_;               // for fresh-aggregator recovery
  Agg agg_;
  // Shard ownership (see the class comment): kNone, kWorker or kCaller.
  alignas(64) std::atomic<uint32_t> owner_{
      static_cast<uint32_t>(Holder::kNone)};
  alignas(64) std::atomic<uint64_t> processed_{0};
  // Cold supervisor-facing control words; they share processed_'s padding
  // region rather than burning a cache line each (all are written at most
  // once per batch / per crash). slick-lint: allow(atomic-alignas)
  alignas(64) std::atomic<uint32_t> state_{
      static_cast<uint32_t>(WorkerState::kRunning)};
  // slick-lint: allow(atomic-alignas)
  std::atomic<uint64_t> kill_before_{0};  // batch ordinal to die at; 0 = off
  // slick-lint: allow(atomic-alignas)
  std::atomic<uint64_t> kill_after_{0};
  // Holder-owned drain bookkeeping (guarded by owner_). Accessed by the
  // supervisor only between join and respawn (ordered by the thread
  // lifecycle).
  uint64_t batches_drained_ = 0;      // cumulative across restarts
  uint64_t last_ckpt_processed_ = 0;  // processed count in last_good_
  std::string last_good_;             // last validated checkpoint frame
  telemetry::Gauge heartbeat_;
  telemetry::ShardCounters counters_;
  telemetry::LatencyHistogram batch_latency_;
  telemetry::LatencyHistogram batch_sizes_;
  std::thread thread_;
};

}  // namespace slick::runtime
