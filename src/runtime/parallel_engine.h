#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "runtime/mpmc_ring.h"
#include "runtime/shard_worker.h"
#include "runtime/spsc_ring.h"
#include "telemetry/counters.h"
#include "telemetry/snapshot.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/clock.h"
#include "window/aggregator.h"

namespace slick::runtime {

/// What the router does when a shard's ring is full (bounded by design —
/// backpressure is never an unbounded queue). Policy matrix in DESIGN.md
/// §12.4.
enum class Backpressure {
  kBlock,       ///< Park the router until the worker frees space (lossless).
  kDropNewest,  ///< Shed the incoming element and count it (load shedding;
                ///< answers then cover only the admitted prefix per shard).
};

inline const char* BackpressureName(Backpressure b) {
  switch (b) {
    case Backpressure::kBlock: return "block";
    case Backpressure::kDropNewest: return "drop-newest";
  }
  return "unknown";
}

/// Genuinely multi-threaded sharded window aggregation — the runtime the
/// paper's §6 leaves as future work ("evaluate SlickDeque in multi-core /
/// multi-node environments"). The calling thread routes the stream
/// round-robin across N shard rings; each shard is a ShardWorker thread
/// driving its own FixedWindowAggregator over a window of W/N partials.
///
/// Exactness: with a global window of W = k·N tuples, round-robin routing
/// sends tuple t to shard t mod N, so whenever the total admitted count is
/// a multiple of N (a *slide barrier*) the last W admitted tuples are
/// exactly the last k tuples of every shard. Every shard's window then
/// covers the same global span, and for a commutative ⊕ the N-way combine
/// of local answers equals the single-node answer (tests check it against
/// one NaiveWindow over W at every slide barrier). Per-shard order
/// is preserved end-to-end (SPSC rings are FIFO), which is all the combine
/// needs. Non-commutative ops (ArgMax's earlier-tie rule, Concat) are
/// admitted at shards == 1 only, where no combine reorders anything — the
/// constructor enforces this at runtime.
///
/// Epoch snapshot — how query() gets a consistent cut without pausing
/// ingest structurally: the router flushes its staging buffers, fixing the
/// epoch at "everything admitted so far" (per-shard targets pushed_[i]);
/// it then waits until every worker's release-published processed counter
/// reaches its target. At that point each ring is drained, every slide is
/// visible (acquire/release edge, see ShardWorker), and no worker can touch
/// its aggregator again until this same thread routes more data — so the
/// coordinator reads the N local answers race-free and folds them.
///
/// Caller-runs barrier (DESIGN.md §12, unsupervised engines): the wait
/// drains on the calling thread. For each shard behind its target that no
/// thread holds, the coordinator takes the shard's ownership word and
/// slides the backlog itself; a shard the worker holds has an awake worker,
/// which finishes it. The router's own batches therefore publish coalesced
/// (DataWake::kCoalesced): they bump the ring's eventcount but skip the
/// futex wake while the shard's backlog is below half a ring, because the
/// next query() drains that backlog here faster than a wake-up would. Half
/// a ring bounds what one query() may slide, and a full ring always has a
/// woken worker. So `stats().processed` for router-admitted tuples may lag
/// by less than half a ring per shard until the next query() or stop().
///
/// Producer-runs admission (DESIGN.md §12.6, unsupervised MPMC engines):
/// a producer handle (MakeProducer(), the TCP sink) has no later barrier
/// of its own, so it settles each batch right after publishing it
/// coalesced. If the shard's worker is parked and no thread holds the
/// shard, the producer drains it on its own thread — at most the backlog
/// it found when it took the shard — and hands it back; otherwise it wakes
/// the worker (no syscall when nobody sleeps). Its tuples are therefore
/// processed without a query(). The router keeps its coalesced-until-
/// query() rule: draining after every router batch measured slower on the
/// in-process pipeline. Supervised engines and shm rings (whose producers
/// are other processes, with no signal-free publish) wake eagerly, as does
/// close(). Idle workers park on their rings' futexes; they are never
/// busy-polled.
///
/// Supervision (DESIGN.md §12) — when Options::checkpoint_interval > 0 the
/// engine is *supervised*: workers checkpoint their aggregators into
/// CRC32-framed buffers every `checkpoint_interval` processed tuples and
/// defer ring releases until a checkpoint validates, so the unreleased ring
/// span is always a complete replay log. The coordinating thread (the one
/// calling push()/query()) is the supervisor: wherever it would otherwise
/// park (admission to a full ring, AwaitEpoch) it polls Supervise(), which
/// detects fail-stopped workers (state() == kKilled), restores them from
/// their last checkpoint, rewinds the ring's claim cursor, and respawns the
/// thread — the replay makes recovered answers bit-identical to a no-fault
/// run. Stalled-but-live workers (a heartbeat older than kStallNs with
/// backlog waiting) cannot be safely restarted (the thread still owns the
/// aggregator), so they are detected and counted, never killed.
///
/// Warm-up: query() requires ready(), i.e. every shard has received its
/// full window of W/N tuples, so each local answer covers real data rather
/// than ⊕-identity padding. Folding before warm-up would combine
/// ⊕-identity sentinels (±inf, NaN) into selective-op answers, and
/// SlickDeque (Non-Inv) shards would assert on an empty deque.
///
/// Shutdown — the destructor (or stop()) closes every ring, which wakes
/// every worker; workers drain what was already routed, publish their
/// final counts, and join. No element that push() admitted is ever lost.
///
/// Admission (DESIGN.md §12.4, §14): push()/flush() forward to a Producer
/// the engine owns (the router), and MPMC engines hand out more Producer
/// handles via MakeProducer(); every batch enters a ring through Admit().
template <typename Agg, template <typename> class Ring = SpscRing>
  requires window::FixedWindowAggregator<Agg>
class ParallelShardedEngine {
 public:
  using op_type = typename Agg::op_type;
  using value_type = typename Agg::value_type;
  using result_type = typename Agg::result_type;
  using Worker = ShardWorker<Agg, Ring>;

  /// True when shard rings admit concurrent producers (Producer handles).
  static constexpr bool kMultiProducer = Ring<int>::kMultiProducer;

  /// Supervisor stall detector: a live worker whose heartbeat is older than
  /// this while backlog waits is counted as stalled.
  static constexpr uint64_t kStallNs = 500'000'000;

  struct Options {
    std::size_t ring_capacity = 1 << 12;  ///< Per-shard ring slots (bounded).
    std::size_t batch = 256;              ///< Router/worker batch size.
    Backpressure backpressure = Backpressure::kBlock;
    /// Tuples a shard processes between checkpoints; 0 disables
    /// supervision (the fast path: per-batch releases, futex parking, the
    /// caller-runs barrier, coalesced router wakes and producer-runs
    /// admission). Supervised engines keep worker-only drains and eager
    /// wakes: their restart protocol owns the consumer role.
    std::size_t checkpoint_interval = 0;
    /// Shm producer lease TTL (DESIGN.md §17): a lease whose holder pid is
    /// gone, or whose heartbeat is older than this, is fenced and its
    /// abandoned claim repaired by the supervisor-polled reaper. 0
    /// disables reaping. Meaningful only when the ring type is shm-backed
    /// (exposes ReapExpiredLeases); ignored otherwise.
    uint64_t lease_ns = 500'000'000;
  };

  struct Stats {
    uint64_t admitted = 0;   ///< Elements accepted into shard rings.
    uint64_t dropped = 0;    ///< Elements shed by the backpressure policy.
    uint64_t processed = 0;  ///< Elements slid into shard aggregators.
    uint64_t restarts = 0;   ///< Worker fail-stops recovered.
  };

  /// `global_window` must be a multiple of `shards`. Worker threads start
  /// immediately.
  ParallelShardedEngine(std::size_t global_window, std::size_t shards,
                        Options options = {})
      : global_window_(global_window), options_(options) {
    SLICK_CHECK(shards >= 1, "need at least one shard");
    SLICK_CHECK(global_window % shards == 0,
                "global window must be a multiple of the shard count");
    SLICK_CHECK(global_window / shards >= 1, "shard windows must be nonempty");
    SLICK_CHECK(shards == 1 || op_type::kCommutative,
                "multi-shard aggregation needs a commutative op "
                "(the N-way combine reorders shard answers)");
    SLICK_CHECK(options_.checkpoint_interval == 0 || Worker::kCheckpointable,
                "supervision (checkpoint_interval > 0) needs an aggregator "
                "with SaveState/LoadState");
    workers_.reserve(shards);
    admit_ = std::make_unique<AdmitCounters[]>(shards);
    stall_latched_.assign(shards, 0);
    const std::size_t shard_window = global_window / shards;
    for (std::size_t i = 0; i < shards; ++i) {
      workers_.push_back(std::make_unique<Worker>(
          shard_window, options_.ring_capacity, BatchSize(),
          options_.checkpoint_interval, i));
    }
    router_.emplace(Producer(this, /*coordinator=*/true));
    for (auto& w : workers_) w->Start();
  }

  ~ParallelShardedEngine() { stop(); }

  ParallelShardedEngine(const ParallelShardedEngine&) = delete;
  ParallelShardedEngine& operator=(const ParallelShardedEngine&) = delete;

  /// Routes the newest element to its shard: tuple t goes to shard t mod N
  /// (the round-robin order the exactness argument above relies on).
  /// Elements are staged per shard and handed to the ring a batch at a
  /// time; call flush() (or query()) to force out a partial batch.
  /// Single-threaded producer: call from one thread only.
  void push(value_type v) {
    SLICK_CHECK(!stopped_, "push after stop()");
    router_->push(std::move(v));
  }

  /// Forces every staged element into its shard ring (blocking or shedding
  /// per the backpressure policy).
  void flush() { router_->flush(); }

  /// Producer handle: per-shard staging buffers and a round-robin cursor
  /// feeding the shard rings through Admit(), the engine's one admission
  /// function; tallies land in the per-shard atomic AdmitCounters, so
  /// handles compose. The engine's own push()/flush() run on one (the
  /// router); MakeProducer() hands out more on MPMC rings, so N handles on
  /// N threads feed the shard rings directly with no shared mutable state.
  /// On an unsupervised engine a handle's batch is settled before its
  /// admission returns: drained on the handle's thread, or left to a woken
  /// worker (producer-runs, see the class comment).
  ///
  /// Contract: a Producer must be flushed (flush(), or just destroyed) and
  /// its thread joined BEFORE the engine's query()/stop() — the epoch
  /// snapshot reads "everything admitted so far" and needs the admission
  /// edge quiesced. On a supervised engine a blocking producer can park on
  /// a dead worker's ring; the coordinating thread must keep calling
  /// SupervisePoll() to recover it (query()/stop() do so while waiting).
  class Producer {
   public:
    Producer(Producer&& other) noexcept
        : engine_(std::exchange(other.engine_, nullptr)),
          staging_(std::move(other.staging_)),
          next_(other.next_),
          shards_(other.shards_),
          batch_(other.batch_),
          coordinator_(other.coordinator_) {}
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;
    Producer& operator=(Producer&&) = delete;

    ~Producer() {
      if (engine_ != nullptr) flush();
    }

    void push(value_type v) {
      std::vector<value_type>& stage = staging_[next_];
      stage.push_back(std::move(v));
      if (stage.size() >= batch_) FlushShard(next_);
      Advance();
    }

    /// Admits every staged element (blocking/shedding per policy).
    void flush() {
      for (std::size_t i = 0; i < staging_.size(); ++i) FlushShard(i);
    }

   private:
    friend class ParallelShardedEngine;

    Producer(ParallelShardedEngine* e, bool coordinator)
        : engine_(e),
          shards_(e->workers_.size()),
          batch_(e->BatchSize()),
          coordinator_(coordinator) {
      staging_.resize(shards_);
      for (auto& s : staging_) s.reserve(batch_);
    }

    void Advance() {
      next_ = next_ + 1 == shards_ ? 0 : next_ + 1;
    }

    void FlushShard(std::size_t i) {
      std::vector<value_type>& stage = staging_[i];
      if (stage.empty()) return;
      engine_->Admit(i, stage.data(), stage.size(), coordinator_);
      stage.clear();
    }

    ParallelShardedEngine* engine_;
    std::vector<std::vector<value_type>> staging_;
    std::size_t next_ = 0;
    // Cached so staging a tuple reads no engine state: the extra loads
    // measurably cost pipe-inproc throughput.
    std::size_t shards_;
    std::size_t batch_;
    bool coordinator_;  // the engine's router: supervises between retries
  };

  /// Hands out a concurrent producer handle; see Producer. Requires MPMC
  /// shard rings — an SPSC-ring engine admits exactly one pushing thread,
  /// the engine's own Producer behind push()/flush().
  Producer MakeProducer()
    requires kMultiProducer
  {
    SLICK_CHECK(!stopped_, "MakeProducer after stop()");
    return Producer(this, /*coordinator=*/false);
  }

  /// One supervisor poll from the coordinating thread: recovers
  /// fail-stopped workers so parked producers can make progress. Call this
  /// in a loop while direct producers run against a supervised engine (the
  /// engine's own query()/stop() paths poll it automatically). Router
  /// thread only — not safe to call concurrently with push()/flush().
  void SupervisePoll() { Supervise(); }

  /// True once every shard's window is full — the warm-up gate for query().
  bool ready() const {
    const uint64_t shard_window = global_window_ / workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (Pushed(i) + router_->staging_[i].size() < shard_window) {
        return false;
      }
    }
    return true;
  }

  /// Global window answer via the epoch snapshot described above. Exact at
  /// slide barriers (admitted count a multiple of the shard count) under
  /// kBlock; under kDropNewest it aggregates each shard's admitted suffix.
  /// Folds the shards' local answers directly (never starting from
  /// ⊕-identity, whose sentinel would pollute selective ops).
  result_type query() {
    SLICK_CHECK(ready(),
                "query before the global window is warm "
                "(every shard window must be full)");
    flush();
    // A shedding flush may drop staged elements, so re-verify the warm-up
    // gate against what the rings actually admitted.
    const uint64_t shard_window = global_window_ / workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      SLICK_CHECK(Pushed(i) >= shard_window,
                  "query before the global window is warm "
                  "(backpressure shed the warm-up tuples)");
    }
    AwaitEpoch();
    value_type acc = workers_[0]->aggregator().query();
    for (std::size_t i = 1; i < workers_.size(); ++i) {
      acc = op_type::combine(acc, workers_[i]->aggregator().query());
    }
    return op_type::lower(acc);
  }

  /// Graceful shutdown: flush staged elements, drain every ring (recovering
  /// dead workers first when supervised, so their backlog is not stranded),
  /// join every worker. Idempotent; the destructor calls it.
  void stop() {
    if (stopped_) return;
    flush();
    if (Supervised()) AwaitEpoch();
    stopped_ = true;
    for (auto& w : workers_) w->Stop();
  }

  std::size_t shard_count() const { return workers_.size(); }
  std::size_t window_size() const { return global_window_; }

  /// The shard's aggregator — safe only at a quiescent point (after
  /// query()/stop(), before further push()).
  const Agg& shard(std::size_t i) const { return workers_[i]->aggregator(); }

  /// Direct access to shard `i`'s ingress ring — the attachment point for
  /// external producers (ShmRing::AttachProducer from fork()ed or named-
  /// segment processes; also what tests and benches feed directly). The
  /// ring's producer side is safe concurrent with the router.
  Ring<value_type>& shard_ring(std::size_t i) {
    SLICK_CHECK(i < workers_.size(), "ring access on a nonexistent shard");
    return workers_[i]->ring();
  }

  /// Chaos/test hook: arms a deterministic fail-stop of shard `i`'s worker
  /// at its `nth_batch`-th drained batch (cumulative across restarts); see
  /// ShardWorker::KillWorker. The supervisor recovers it on its next poll —
  /// meaningful only in supervised engines (checkpoint_interval > 0).
  void InjectWorkerKill(std::size_t i, KillPoint point, uint64_t nth_batch) {
    SLICK_CHECK(i < workers_.size(), "kill on a nonexistent shard");
    workers_[i]->KillWorker(point, nth_batch);
  }

  Stats stats() const {
    Stats s;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      s.admitted += Pushed(i);
      s.dropped += Dropped(i);
      s.processed += workers_[i]->processed();
      s.restarts += workers_[i]->counters().restarts.Get();
    }
    return s;
  }

  /// Live telemetry cut: per-shard flow counters, ring occupancy and
  /// high-water, fault-tolerance metrics (restarts,
  /// checkpoints, replay, heartbeat age), per-shard ⊕/⊖ counts (when the op
  /// is ops::ThreadCountingOp), and the merged per-batch drain-latency
  /// histogram. Counters are relaxed atomics, so this is safe to call from
  /// any thread while the runtime serves; the conservation identity
  /// tuples_in == tuples_out + in_flight is exact at a quiescent cut
  /// (after query()/stop()) and within one in-transit batch otherwise.
  /// `staged` is router-owned and exact only from the router thread.
  telemetry::RuntimeSnapshot snapshot() const {
    telemetry::RuntimeSnapshot r;
    r.backpressure = BackpressureName(options_.backpressure);
    r.checkpoint_interval = options_.checkpoint_interval;
    const uint64_t now = util::MonotonicNanos();
    r.shards.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const telemetry::ShardCounters& c = workers_[i]->counters();
      telemetry::ShardSnapshot s;
      s.tuples_in = c.tuples_in.Get();
      s.tuples_out = c.tuples_out.Get();
      s.dropped = c.dropped.Get();
      s.batches = c.batches.Get();
      s.coordinator_batches = c.coordinator_batches.Get();
      s.producer_batches = c.producer_batches.Get();
      s.idle_polls = c.idle_polls.Get();
      s.in_flight = workers_[i]->ring().unconsumed();
      s.unreleased = workers_[i]->ring().unreleased();
      s.staged = router_->staging_[i].size();
      s.ring_highwater = workers_[i]->ring().occupancy_highwater();
      s.combines = c.combines.Get();
      s.inverses = c.inverses.Get();
      s.worker_restarts = c.restarts.Get();
      s.checkpoints = c.checkpoints.Get();
      s.checkpoint_failures = c.checkpoint_failures.Get();
      s.replayed = c.replayed.Get();
      s.stall_detections = c.stall_detections.Get();
      if constexpr (requires { workers_[i]->ring().lease_stats(); }) {
        const auto lease = workers_[i]->ring().lease_stats();
        s.leases_reclaimed = lease.leases_reclaimed;
        s.slots_tombstoned = lease.slots_tombstoned;
        s.zombie_fences = lease.zombie_fences;
      }
      const uint64_t beat = workers_[i]->heartbeat_ns();
      s.heartbeat_age_ns = (beat != 0 && now > beat) ? now - beat : 0;
      r.shards.push_back(s);
      r.batch_latency_ns.Merge(workers_[i]->batch_latency().TakeSnapshot());
      r.batch_sizes.Merge(workers_[i]->batch_sizes().TakeSnapshot());
    }
    return r;
  }

  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    for (const auto& w : workers_) {
      bytes += sizeof(*w) + w->aggregator().memory_bytes() +
               w->ring().capacity() * sizeof(value_type);
    }
    for (const auto& s : router_->staging_) {
      bytes += s.capacity() * sizeof(value_type);
    }
    return bytes;
  }

 private:
  bool Supervised() const { return options_.checkpoint_interval > 0; }

  std::size_t BatchSize() const {
    return options_.batch < 1 ? 1 : options_.batch;
  }

  /// Reaps dead/expired producer leases on every shard ring. Compiles to
  /// nothing for in-process ring types (no ReapExpiredLeases); for shm
  /// rings it is throttled to lease_ns/4 so the per-lease pid probes stay
  /// off the per-poll cost. Router thread only (last_reap_ns_ is
  /// router-owned).
  void ReapShmLeases() {
    if constexpr (requires(Ring<value_type>& r) {
                    r.ReapExpiredLeases(uint64_t{}, uint64_t{});
                  }) {
      if (options_.lease_ns == 0) return;
      const uint64_t now = util::MonotonicNanos();
      if (now - last_reap_ns_ < options_.lease_ns / 4) return;
      last_reap_ns_ = now;
      for (auto& w : workers_) {
        (void)w->ring().ReapExpiredLeases(now, options_.lease_ns);
      }
    }
  }

  /// One supervisor poll (router thread only): reap dead shm producer
  /// leases; recover fail-stopped workers; latch-count heartbeat stalls on
  /// live ones. Lease reaping runs even when checkpoint supervision is off
  /// — a dead external producer must not wedge an unsupervised engine
  /// either — so it sits before the Supervised() gate.
  void Supervise() {
    ReapShmLeases();
    if (!Supervised()) return;
    const uint64_t now = util::MonotonicNanos();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      if (w.state() == WorkerState::kKilled) {
        w.RecoverAndRestart();
        stall_latched_[i] = 0;
        continue;
      }
      // Stall detector: live thread, backlog waiting, heartbeat stale. A
      // stalled worker still owns its aggregator, so it is reported (once
      // per episode), never restarted — see DESIGN.md §12.3.
      const uint64_t beat = w.heartbeat_ns();
      const bool stalled = w.state() == WorkerState::kRunning && beat != 0 &&
                           w.ring().unconsumed() > 0 && now > beat &&
                           now - beat > kStallNs;
      if (stalled && stall_latched_[i] == 0) {
        w.counters().stall_detections.Add(1);
        stall_latched_[i] = 1;
      } else if (!stalled) {
        stall_latched_[i] = 0;
      }
    }
  }

  /// Admits `n` staged elements into shard `i`'s ring under the
  /// backpressure policy — the one admission function behind the router
  /// and every Producer handle — then, for a producer-runs handle, settles
  /// the batch (ShardWorker::DrainOnProducer). Under kBlock on a supervised
  /// engine the coordinator (the engine's router) supervises between
  /// full-ring retries instead of parking, since a parked router could
  /// never restart the dead worker it waits on (DESIGN.md §12.4). A handle
  /// parked on a dead worker's ring waits for the coordinator's next poll.
  /// Counter updates are relaxed atomics, so any number of handles compose.
  /// Out of line: it runs once per staged batch, and inlined into a
  /// caller's per-tuple push loop it makes GCC spill that loop's counter.
  [[gnu::noinline]] void Admit(std::size_t i, const value_type* data,
                               std::size_t n, bool coordinator) {
    Ring<value_type>& ring = workers_[i]->ring();
    // Unsupervised publishes skip the wake below half a ring: the router's
    // own next query() drains its batches (caller-runs barrier), and a
    // producer handle drains or wakes right after admitting (producer-runs,
    // class comment). A ring without a signal-free publish (shm) wakes.
    const DataWake wake =
        Supervised() ? DataWake::kEager : DataWake::kCoalesced;
    const bool producer_runs = !coordinator && !Supervised() &&
                               Ring<value_type>::signal_free_publish();
    std::size_t accepted = 0;
    switch (options_.backpressure) {
      case Backpressure::kBlock:
        if (coordinator && Supervised()) {
          for (;;) {
            accepted += ring.try_push_n(data + accepted, n - accepted, wake);
            if (accepted == n) break;
            Supervise();
            std::this_thread::yield();
          }
        } else {
          accepted = ring.push_n(data, n, wake);  // futex-parked push
        }
        SLICK_CHECK(accepted == n, "ring closed during push");
        break;
      case Backpressure::kDropNewest:
        accepted = ring.try_push_n(data, n, wake);
        break;
    }
    AccountAdmission(i, accepted, n - accepted);
    if (producer_runs && accepted > 0) workers_[i]->DrainOnProducer();
  }

  /// Blocks until every shard has processed exactly what was routed to it —
  /// the quiescent cut the combine reads from. Unsupervised engines drain
  /// on the calling thread (caller-runs): a shard the worker does not hold
  /// is taken and drained here; one it holds has an awake worker, and the
  /// loop yields until it finishes. Supervised engines wait for their
  /// workers, recovering dead ones while they wait.
  void AwaitEpoch() {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      while (w.processed() < Pushed(i)) {
        if (!Supervised() && w.DrainOnCaller() && w.processed() >= Pushed(i)) {
          break;
        }
        Supervise();
        std::this_thread::yield();
      }
    }
  }

  /// Per-shard admission tallies. Atomic (relaxed) so Producer handles and
  /// the router compose; cache-line padded so concurrent producers landing
  /// on different shards never false-share. Exactness of the quiescent
  /// reads (ready()/query()/AwaitEpoch) comes from the caller's quiesce
  /// contract: every producer is flushed and synchronized-with (joined)
  /// before the read, which orders its relaxed adds.
  struct alignas(64) AdmitCounters {
    // Shares the padded line with `dropped` by design: both are written by
    // whichever thread admits to this shard, and a snapshot reads them
    // together. slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> pushed{0};
    // slick-lint: allow(atomic-alignas)
    std::atomic<uint64_t> dropped{0};
  };

  uint64_t Pushed(std::size_t i) const {
    // relaxed: see AdmitCounters — quiescence supplies the ordering.
    return admit_[i].pushed.load(std::memory_order_relaxed);
  }
  uint64_t Dropped(std::size_t i) const {
    // relaxed: see AdmitCounters.
    return admit_[i].dropped.load(std::memory_order_relaxed);
  }

  void AccountAdmission(std::size_t i, std::size_t accepted,
                        std::size_t dropped) {
    telemetry::ShardCounters& tel = workers_[i]->counters();
    // relaxed: flow tallies; see AdmitCounters.
    admit_[i].pushed.fetch_add(accepted, std::memory_order_relaxed);
    if (dropped > 0) {
      admit_[i].dropped.fetch_add(dropped, std::memory_order_relaxed);
      tel.dropped.Add(dropped);
    }
    tel.tuples_in.Add(accepted);
  }

  const std::size_t global_window_;
  const Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // push()/flush(); built after workers_. Written on every push(), so it
  // starts a cache line: Producer handles on other threads read the fields
  // above in every Admit().
  alignas(64) std::optional<Producer> router_;
  std::unique_ptr<AdmitCounters[]> admit_;  // per-shard admit/drop tallies
  std::vector<uint8_t> stall_latched_;  // per-shard stall episode latch
  uint64_t last_reap_ns_ = 0;  // router-owned lease-reap throttle clock
  bool stopped_ = false;
};

}  // namespace slick::runtime
