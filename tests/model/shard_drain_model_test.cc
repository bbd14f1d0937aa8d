// Deterministic model-checking of the ShardWorker drain loop, its
// ownership handoff, and the epoch-snapshot quiescence edge (tests/model/,
// DESIGN.md §9 and §12).
//
// Virtual threads over one real SpscRing + SlickDequeInv:
//   * router      — the coordinator's routing half: pushes values 1..N
//                   (try_push_n + the WaitForSpace park), either eagerly
//                   waking the consumer or coalesced (DataWake::kCoalesced:
//                   the wake is skipped while the backlog is below half the
//                   ring);
//   * worker      — ShardWorker::Run: one ownership CAS per batch, claim,
//                   per-element slide, release, the `processed` publish,
//                   hand-back; when nothing is claimable, RingCore::AwaitPop
//                   without holding the shard, down to the waiter-counted
//                   futex park (advertise and word check, sleep, wake);
//   * snapshot    — the supervised barrier: parked until processed == N,
//                   then reads aggregator.query() exactly once; or
//   * coordinator — the caller-runs barrier (ParallelShardedEngine::
//                   AwaitEpoch + ShardWorker::DrainOnCaller): once routing
//                   is done it takes the shard whenever the worker does not
//                   hold it, drains everything claimable itself, reads the
//                   answer at processed == N, then closes the ring (stop()).
//
// The futex is modeled, not called: a sleeper leaves the sleep only when a
// waker that saw a nonzero waiter count wakes it. A coalesced publish that
// skips the wake therefore really leaves the worker asleep, and a protocol
// that waits on a sleeping worker shows up as a deadlock.
//
// Checked on EVERY explored schedule: processed is monotone and never runs
// ahead of the slides; every routed element is slid exactly once and in
// routing order; the snapshot fires only at true quiescence and equals the
// sequential oracle (sum of the last `window` routed values); and no
// terminal state leaves a waiter parked on a sleeping worker with backlog
// (the explorer's deadlock check).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "model/virtual_scheduler.h"
#include "ops/arith.h"
#include "runtime/spsc_ring.h"

namespace slick::model {
namespace {

using core::SlickDequeInv;
using runtime::DataWake;
using runtime::SpscRing;

/// Models ShardWorker::owner_.
enum class Owner { kNone, kWorker, kCaller };

struct ShardWorld {
  ShardWorld(std::size_t window, std::size_t min_capacity)
      : ring(min_capacity), agg(window) {}

  SpscRing<int64_t> ring;
  SlickDequeInv<ops::SumInt> agg;
  int64_t routed = 0;     ///< elements accepted by push (router-side count)
  int64_t processed = 0;  ///< models ShardWorker::processed_ (SC step model)
  int64_t slides = 0;     ///< ground truth: slide() invocations
  bool out_of_order = false;  ///< a slide that was not value slides + 1
  bool routing_done = false;  ///< router finished pushing (query may start)
  Owner owner = Owner::kNone;
  // The modeled data-side futex: the consumer's advertised waiter count
  // and whether it is asleep in the kernel.
  int data_waiters = 0;
  bool worker_asleep = false;
  bool snapshot_taken = false;
  int64_t snapshot_value = 0;
  int64_t snapshot_processed_seen = 0;

  /// futex::WakeAll on tail_event: wakes the sleeper iff a waiter is
  /// counted (the seq_cst RMW gate).
  void WakeData() {
    if (data_waiters > 0) worker_asleep = false;
  }

  /// One slide into the aggregator, checked for routing order.
  void Slide(int64_t v) {
    if (v != slides + 1) out_of_order = true;
    agg.slide(v);
    ++slides;
  }
};

/// Router: pushes 1..N with the WaitForSpace snapshot/recheck/park
/// protocol on a full ring. Each accepted publish is one step: the real
/// try_push_n (tail store, event bump, wake decision) and the wake (the
/// waiter-count RMW and FUTEX_WAKE). Splitting the bump from the wake adds
/// no outcome, because the worker's advertise and word check are one step
/// too: it either sees the bump and does not sleep, or sleeps and counts
/// as a waiter before the wake reads the count. With `close_at_end` the
/// router also closes the ring (the snapshot scenarios' shutdown);
/// otherwise the coordinator does.
class RouterThread : public VirtualThread {
 public:
  RouterThread(ShardWorld* w, int64_t n, DataWake wake, bool close_at_end)
      : w_(w), n_(n), wake_(wake), close_at_end_(close_at_end) {}

  void Step() override {
    switch (state_) {
      case State::kTryPush: {
        const int64_t v = next_ + 1;  // route 1..N so sums are non-trivial
        if (w_->ring.try_push_n(&v, 1, wake_) != 1) {
          state_ = State::kSnapshotEvent;
          return;
        }
        ++w_->routed;
        ++next_;
        // The decision RingCore's coalesced publish takes right after it.
        if (wake_ == DataWake::kEager || w_->ring.coalesced_wake_due()) {
          w_->WakeData();
        }
        if (next_ == n_) {
          w_->routing_done = true;
          state_ = close_at_end_ ? State::kClose : State::kDone;
        }
        return;
      }
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.push_space_or_closed() ? State::kTryPush
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kTryPush;
        return;
      case State::kClose:
        w_->ring.close();
        w_->WakeData();  // close() always wakes
        state_ = State::kDone;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  // Releases always wake eagerly, so the space side parks value-based.
  bool Parked() const override {
    return state_ == State::kParked &&
           w_->ring.head_event_word() == event_snapshot_;
  }

 private:
  enum class State {
    kTryPush,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kClose,
    kDone,
  };
  ShardWorld* w_;
  const int64_t n_;
  const DataWake wake_;
  const bool close_at_end_;
  State state_ = State::kTryPush;
  int64_t next_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// The per-batch body both holders run (ShardWorker::DrainBatch): the
/// claim, one step per slid element, then the release and the processed
/// publish. Steps whose intermediate states no other thread can tell apart
/// are merged — the release and the publish (the router sees the freed
/// slots, the coordinator the count, and neither acts on the pair), and
/// the ownership CAS with the claim that follows it — which keeps the
/// unbounded nightly exploration tractable.
class BatchDrain {
 public:
  /// Claim step: false when nothing was claimable.
  bool Claim(ShardWorld* w, std::size_t batch) {
    std::size_t k = 0;
    const int64_t* span = w->ring.TryClaimPop(batch, &k);
    if (span == nullptr) return false;
    // The span stays ours until ReleasePop; copying it here is the same as
    // reading it slide by slide.
    pending_.assign(span, span + k);
    slid_ = 0;
    return true;
  }

  /// One slide step, or the release + publish step; false once the batch
  /// is done.
  bool Step(ShardWorld* w) {
    if (slid_ < pending_.size()) {
      w->Slide(pending_[slid_++]);
      return true;
    }
    // Release only after the slides (the router may then overwrite), then
    // processed_.store(done, release): from here the snapshot may
    // legitimately observe the new count.
    w->ring.ReleasePop(pending_.size());
    w->processed += static_cast<int64_t>(pending_.size());
    return false;
  }

 private:
  std::vector<int64_t> pending_;
  std::size_t slid_ = 0;
};

/// Worker: ShardWorker::Run decomposed into scheduler-visible steps. The
/// futex park is advertise + word check in one step (a waker bumps the
/// word before it reads the waiter count, so splitting them adds no
/// outcome), then the sleep, left only through a wake.
class WorkerThread : public VirtualThread {
 public:
  WorkerThread(ShardWorld* w, std::size_t batch) : w_(w), batch_(batch) {}

  void Step() override {
    switch (state_) {
      case State::kTryOwn:  // the ownership CAS, then the claim
        if (w_->owner != Owner::kNone) {
          state_ = State::kHandBack;
        } else if (drain_.Claim(w_, batch_)) {
          w_->owner = Owner::kWorker;
          state_ = State::kDrain;
        } else {
          state_ = State::kAwaitCheck;  // nothing claimable: hand back
        }
        return;
      case State::kHandBack:  // AwaitHandBack: yield, retry the CAS
        state_ = State::kTryOwn;
        return;
      case State::kDrain:
        if (!drain_.Step(w_)) {
          w_->owner = Owner::kNone;
          state_ = State::kTryOwn;
        }
        return;
      case State::kAwaitCheck:  // RingCore::AwaitPop, holding nothing
        if (w_->ring.closed() && w_->ring.unconsumed() == 0) {
          state_ = State::kDone;  // closed and settled
        } else if (w_->ring.pop_ready_or_settled()) {
          state_ = State::kTryOwn;
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.pop_ready_or_settled() ? State::kAwaitCheck
                                                 : State::kFutexWait;
        return;
      case State::kFutexWait:
        // Advertise, then FUTEX_WAIT's atomic word == expected check.
        if (w_->ring.tail_event_word() == event_snapshot_) {
          ++w_->data_waiters;
          w_->worker_asleep = true;
          state_ = State::kAsleep;
        } else {
          state_ = State::kAwaitCheck;
        }
        return;
      case State::kAsleep:  // woken: unadvertise, wait again
        --w_->data_waiters;
        state_ = State::kAwaitCheck;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    if (state_ == State::kAsleep) return w_->worker_asleep;
    return state_ == State::kHandBack && w_->owner == Owner::kCaller;
  }

 private:
  enum class State {
    kTryOwn,
    kHandBack,
    kDrain,
    kAwaitCheck,
    kSnapshotEvent,
    kRecheck,
    kFutexWait,
    kAsleep,
    kDone,
  };
  ShardWorld* w_;
  const std::size_t batch_;
  State state_ = State::kTryOwn;
  BatchDrain drain_;
  uint32_t event_snapshot_ = 0;
};

/// Snapshot: the supervised barrier's quiescent read. Parked until the
/// worker has published processed == N (the acquire-load spin), then reads
/// the aggregate once.
class SnapshotThread : public VirtualThread {
 public:
  SnapshotThread(ShardWorld* w, int64_t n) : w_(w), n_(n) {}

  void Step() override {
    w_->snapshot_taken = true;
    w_->snapshot_processed_seen = w_->processed;
    w_->snapshot_value = w_->agg.query();
    done_ = true;
  }
  bool Done() const override { return done_; }
  bool Parked() const override { return w_->processed != n_; }

 private:
  ShardWorld* w_;
  const int64_t n_;
  bool done_ = false;
};

/// Coordinator: query() then stop() after routing. AwaitEpoch's loop —
/// take the shard unless the worker holds it, drain everything claimable
/// (DrainOnCaller), hand it back, re-check processed; a shard the worker
/// holds is waited out (the yield). Then the snapshot read and close().
class CoordinatorThread : public VirtualThread {
 public:
  CoordinatorThread(ShardWorld* w, int64_t n, std::size_t batch)
      : w_(w), n_(n), batch_(batch) {}

  void Step() override {
    switch (state_) {
      case State::kAwaitRouting:
        state_ = State::kCheck;
        return;
      case State::kCheck:
        if (w_->processed == n_) {
          state_ = State::kSnapshot;
        } else if (w_->owner != Owner::kNone) {
          state_ = State::kYield;
        } else {
          w_->owner = Owner::kCaller;  // the ownership CAS
          state_ = State::kClaim;
        }
        return;
      case State::kYield:
        state_ = State::kCheck;
        return;
      case State::kClaim:
        if (drain_.Claim(w_, batch_)) {
          state_ = State::kDrain;
        } else {
          w_->owner = Owner::kNone;  // drained: hand the shard back
          state_ = State::kCheck;
        }
        return;
      case State::kDrain:
        if (!drain_.Step(w_)) state_ = State::kClaim;
        return;
      case State::kSnapshot:
        w_->snapshot_taken = true;
        w_->snapshot_processed_seen = w_->processed;
        w_->snapshot_value = w_->agg.query();
        state_ = State::kClose;
        return;
      case State::kClose:
        w_->ring.close();
        w_->WakeData();  // close() always wakes
        state_ = State::kDone;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    if (state_ == State::kAwaitRouting) return !w_->routing_done;
    // The yield loop, folded: it can only make progress once the worker
    // hands the shard back or finishes the backlog itself.
    return state_ == State::kYield && w_->owner == Owner::kWorker &&
           w_->processed != n_;
  }

 private:
  enum class State {
    kAwaitRouting,
    kCheck,
    kYield,
    kClaim,
    kDrain,
    kSnapshot,
    kClose,
    kDone,
  };
  ShardWorld* w_;
  const int64_t n_;
  const std::size_t batch_;
  State state_ = State::kAwaitRouting;
  BatchDrain drain_;
};

struct OwnedShardWorld {
  std::unique_ptr<ShardWorld> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

/// Sequential oracle: SumInt over the last `window` of 1..n (identity-
/// padded, matching SlickDequeInv's pre-filled partials).
int64_t OracleWindowSum(int64_t n, std::size_t window) {
  int64_t sum = 0;
  const int64_t lo = n > static_cast<int64_t>(window)
                         ? n - static_cast<int64_t>(window) + 1
                         : 1;
  for (int64_t v = lo; v <= n; ++v) sum += v;
  return sum;
}

void WireOracles(OwnedShardWorld* ow, int64_t n, std::size_t window) {
  ShardWorld* s = ow->state.get();
  const int64_t expect = OracleWindowSum(n, window);
  ow->world.check_step = [s, n](const auto& fail) {
    if (s->processed > s->slides) {
      fail("processed count published ahead of the slides it covers");
      return;
    }
    if (s->slides > s->routed) {
      fail("an element was slid that the router never accepted, or twice");
      return;
    }
    if (s->out_of_order) {
      fail("elements reached the aggregator out of routing order");
      return;
    }
    if (s->snapshot_taken && s->snapshot_processed_seen != n) {
      fail("snapshot fired before quiescence: saw processed=" +
           std::to_string(s->snapshot_processed_seen));
    }
  };
  ow->world.check_final = [s, n, expect](const auto& fail) {
    if (s->slides != n || !s->ring.empty()) {
      fail("drain incomplete at termination: slides=" +
           std::to_string(s->slides) + " in_ring=" +
           std::to_string(s->ring.size()));
      return;
    }
    if (!s->snapshot_taken) {
      fail("snapshot thread never ran (quiescence predicate never held)");
      return;
    }
    if (s->snapshot_value != expect) {
      fail("epoch snapshot diverged from oracle: got " +
           std::to_string(s->snapshot_value) + " want " +
           std::to_string(expect));
    }
  };
  for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
}

ExploreOptions ExploreFromEnv() {
  ExploreOptions opts;
  opts.preemption_bound =
      static_cast<int>(EnvKnob("SLICK_MODEL_PREEMPTIONS", 4));
  opts.max_schedules = static_cast<uint64_t>(
      EnvKnob("SLICK_MODEL_MAX_SCHEDULES", 2'000'000));
  return opts;
}

/// The supervised barrier: eager router, worker-only drain, snapshot
/// waits for the worker.
void RunScenario(const char* what, int64_t n, std::size_t window,
                 std::size_t capacity, std::size_t batch) {
  ScheduleExplorer explorer(ExploreFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedShardWorld>();
    ow->state = std::make_unique<ShardWorld>(window, capacity);
    ow->threads.push_back(std::make_unique<RouterThread>(
        ow->state.get(), n, DataWake::kEager, /*close_at_end=*/true));
    ow->threads.push_back(
        std::make_unique<WorkerThread>(ow->state.get(), batch));
    ow->threads.push_back(
        std::make_unique<SnapshotThread>(ow->state.get(), n));
    WireOracles(ow.get(), n, window);
    return ow;
  });
  ReportAndExpectExhausted(r, what);
}

/// The caller-runs barrier: coalesced router, worker with the ownership
/// step, coordinator that takes the shard in AwaitEpoch.
void RunCallerRunsScenario(const char* what, int64_t n, std::size_t window,
                           std::size_t capacity, std::size_t batch) {
  ScheduleExplorer explorer(ExploreFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedShardWorld>();
    ow->state = std::make_unique<ShardWorld>(window, capacity);
    ow->threads.push_back(std::make_unique<RouterThread>(
        ow->state.get(), n, DataWake::kCoalesced, /*close_at_end=*/false));
    ow->threads.push_back(
        std::make_unique<WorkerThread>(ow->state.get(), batch));
    ow->threads.push_back(
        std::make_unique<CoordinatorThread>(ow->state.get(), n, batch));
    WireOracles(ow.get(), n, window);
    return ow;
  });
  ReportAndExpectExhausted(r, what);
}

/// Steady state: window smaller than the stream, so the snapshot answer
/// exercises eviction (⊖) as well as ⊕.
TEST(ShardDrainModel, DrainThenSnapshot) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("DrainThenSnapshot", n, /*window=*/2,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/2);
}

/// Window wider than the stream: the identity-padded partials path.
TEST(ShardDrainModel, WideWindowSnapshot) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("WideWindowSnapshot", n, /*window=*/8,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/2);
}

/// batch=1 maximizes publish points: processed is bumped after every
/// element, so the snapshot's quiescence predicate flips at the finest
/// possible granularity.
TEST(ShardDrainModel, PerElementPublish) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("PerElementPublish", n, /*window=*/2,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/1);
}

/// Every publish stays below half the ring, so the router never wakes the
/// worker: whatever the worker has not drained on its own (it may be
/// awake, or asleep since before the first publish), the coordinator must
/// drain itself — and never while the worker holds the shard. The three-
/// actor scenarios have fixed sizes: unbounded preemption (the nightly
/// job) explores 2.4M schedules at three elements and exceeds its budget
/// at four.
TEST(ShardDrainModel, CallerRunsBelowHalfRing) {
  RunCallerRunsScenario("CallerRunsBelowHalfRing", /*n=*/3, /*window=*/2,
                        /*capacity=*/8, /*batch=*/2);
}

/// A ring of 4: the second publish brings the backlog to half the ring,
/// so that coalesced publish must wake a sleeping worker, while the first
/// may not. (A full ring needs a fifth element, which the unbounded nightly
/// exploration cannot afford; the snapshot scenarios cover the full-ring
/// park, and parallel_engine_test drives coalesced kBlock routers through
/// full 16-slot rings.)
TEST(ShardDrainModel, CallerRunsCrossesHalfRing) {
  RunCallerRunsScenario("CallerRunsCrossesHalfRing", /*n=*/3, /*window=*/2,
                        /*capacity=*/4, /*batch=*/2);
}

}  // namespace
}  // namespace slick::model
