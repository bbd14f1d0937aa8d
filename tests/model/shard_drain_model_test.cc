// Deterministic model-checking of the ShardWorker drain loop, its
// ownership handoff, and the epoch-snapshot quiescence edge (tests/model/,
// DESIGN.md §9 and §12).
//
// Virtual threads over one real ring + SlickDequeInv (an SpscRing under
// the router, an MpmcRing under producer handles):
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
//                   answer at processed == N, then closes the ring (stop());
//   * producers   — two producer handles (ParallelShardedEngine::Admit +
//                   ShardWorker::DrainOnProducer), one element per
//                   admission: publish coalesced, then, if the worker is
//                   parked and the shard is free, take it, drain at most the
//                   backlog found, check for more, hand it back and wake if
//                   there was more; otherwise wake. Two, because a second
//                   holder racing a producer's ownership CAS is what the
//                   wake on a failed CAS is for. Their coordinator first
//                   waits for processed == N without draining (a producer's
//                   tuples are processed without a query()), then queries.
//
// The futex is modeled, not called: a sleeper leaves the sleep only when a
// waker that saw a nonzero waiter count wakes it. A coalesced publish that
// skips the wake therefore really leaves the worker asleep, and a protocol
// that waits on a sleeping worker shows up as a deadlock.
//
// Checked on EVERY explored schedule: processed is monotone and never runs
// ahead of the slides; every routed element is slid exactly once and in
// its producer's order; the snapshot fires only at true quiescence and
// equals the sequential oracle (sum of the last `window` routed values);
// and no terminal state leaves a waiter parked on a sleeping worker with
// backlog (the explorer's deadlock check).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "model/virtual_scheduler.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/spsc_ring.h"

namespace slick::model {
namespace {

using core::SlickDequeInv;
using runtime::DataWake;
using runtime::MpmcRing;
using runtime::SpscRing;

/// Models ShardWorker::owner_ (a producer holds it as a caller too).
enum class Owner { kNone, kWorker, kCaller };

/// Producer p routes the values p * kProducerStride + 1, + 2, ...; the
/// router is producer 0, routing 1..N.
constexpr int64_t kProducerStride = 100;

template <typename Ring>
struct ShardWorld {
  ShardWorld(std::size_t window, std::size_t min_capacity)
      : ring(min_capacity), agg(window) {}

  Ring ring;
  SlickDequeInv<ops::SumInt> agg;
  int64_t routed = 0;     ///< elements accepted by push (router-side count)
  int64_t processed = 0;  ///< models ShardWorker::processed_ (SC step model)
  int64_t slides = 0;     ///< ground truth: slide() invocations
  bool out_of_order = false;  ///< a slide out of its producer's order
  int64_t next_value[2] = {1, kProducerStride + 1};  ///< per producer
  int producers_done = 0;  ///< producer handles finished admitting
  bool routing_done = false;  ///< every producer finished (query may start)
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

  /// One slide into the aggregator, checked for its producer's order.
  void Slide(int64_t v) {
    int64_t& want = next_value[v > kProducerStride ? 1 : 0];
    if (v != want) out_of_order = true;
    ++want;
    agg.slide(v);
    ++slides;
  }
};

using SpscWorld = ShardWorld<SpscRing<int64_t>>;
using MpmcWorld = ShardWorld<MpmcRing<int64_t>>;

/// One element's admission as RingCore::push_n runs it, for the router
/// and the producer handles alike: the push, and on a full ring the
/// WaitForSpace snapshot/recheck/park. Each accepted publish is one step:
/// the real try_push_n (tail store, event bump, wake decision) and the wake
/// (the waiter-count RMW and FUTEX_WAKE). Splitting the bump from the wake
/// adds no outcome, because the worker's advertise and word check are one
/// step too: it either sees the bump and does not sleep, or sleeps and
/// counts as a waiter before the wake reads the count.
class ParkingPush {
 public:
  /// One step; true once `v` is published.
  template <typename W>
  bool Step(W* w, int64_t v, DataWake wake) {
    switch (state_) {
      case State::kTryPush:
        if (w->ring.try_push_n(&v, 1, wake) != 1) {
          state_ = State::kSnapshotEvent;
          return false;
        }
        ++w->routed;
        // The decision RingCore's coalesced publish takes right after it.
        if (wake == DataWake::kEager || w->ring.coalesced_wake_due()) {
          w->WakeData();
        }
        return true;
      case State::kSnapshotEvent:
        event_snapshot_ = w->ring.head_event_word();
        state_ = State::kRecheck;
        return false;
      case State::kRecheck:
        state_ = w->ring.push_space_or_closed() ? State::kTryPush
                                                : State::kParked;
        return false;
      case State::kParked:
        state_ = State::kTryPush;
        return false;
    }
    return false;
  }

  // Releases always wake eagerly, so the space side parks value-based.
  template <typename W>
  bool Parked(const W* w) const {
    return state_ == State::kParked &&
           w->ring.head_event_word() == event_snapshot_;
  }

 private:
  enum class State { kTryPush, kSnapshotEvent, kRecheck, kParked };
  State state_ = State::kTryPush;
  uint32_t event_snapshot_ = 0;
};

/// Router: pushes 1..N, eagerly waking the consumer or coalesced. With
/// `close_at_end` the router also closes the ring (the snapshot scenarios'
/// shutdown); otherwise the coordinator does.
template <typename W>
class RouterThread : public VirtualThread {
 public:
  RouterThread(W* w, int64_t n, DataWake wake, bool close_at_end)
      : w_(w), n_(n), wake_(wake), close_at_end_(close_at_end) {}

  void Step() override {
    switch (state_) {
      case State::kPush:
        // Route 1..N so sums are non-trivial.
        if (!push_.Step(w_, next_ + 1, wake_)) return;
        ++next_;
        if (next_ == n_) {
          w_->routing_done = true;
          state_ = close_at_end_ ? State::kClose : State::kDone;
        }
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
    return state_ == State::kPush && push_.Parked(w_);
  }

 private:
  enum class State { kPush, kClose, kDone };
  W* w_;
  const int64_t n_;
  const DataWake wake_;
  const bool close_at_end_;
  State state_ = State::kPush;
  int64_t next_ = 0;
  ParkingPush push_;
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
  template <typename W>
  bool Claim(W* w, std::size_t batch) {
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
  template <typename W>
  bool Step(W* w) {
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

  /// Elements in the current batch.
  std::size_t size() const { return pending_.size(); }

 private:
  std::vector<int64_t> pending_;
  std::size_t slid_ = 0;
};

/// Worker: ShardWorker::Run decomposed into scheduler-visible steps. The
/// futex park is advertise + word check in one step (a waker bumps the
/// word before it reads the waiter count, so splitting them adds no
/// outcome), then the sleep, left only through a wake.
template <typename W>
class WorkerThread : public VirtualThread {
 public:
  WorkerThread(W* w, std::size_t batch) : w_(w), batch_(batch) {}

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
  W* w_;
  const std::size_t batch_;
  State state_ = State::kTryOwn;
  BatchDrain drain_;
  uint32_t event_snapshot_ = 0;
};

/// Snapshot: the supervised barrier's quiescent read. Parked until the
/// worker has published processed == N (the acquire-load spin), then reads
/// the aggregate once.
template <typename W>
class SnapshotThread : public VirtualThread {
 public:
  SnapshotThread(W* w, int64_t n) : w_(w), n_(n) {}

  void Step() override {
    w_->snapshot_taken = true;
    w_->snapshot_processed_seen = w_->processed;
    w_->snapshot_value = w_->agg.query();
    done_ = true;
  }
  bool Done() const override { return done_; }
  bool Parked() const override { return w_->processed != n_; }

 private:
  W* w_;
  const int64_t n_;
  bool done_ = false;
};

/// Coordinator: query() then stop() after routing. AwaitEpoch's loop —
/// take the shard unless the worker holds it, drain everything claimable
/// (DrainOnCaller), hand it back, re-check processed; a shard the worker
/// holds is waited out (the yield). Then the snapshot read and close().
/// With `await_processed` it first polls processed == N without draining
/// (stats().processed), which only terminates if the producers left no
/// backlog behind a sleeping worker.
template <typename W>
class CoordinatorThread : public VirtualThread {
 public:
  CoordinatorThread(W* w, int64_t n, std::size_t batch,
                    bool await_processed = false)
      : w_(w), n_(n), batch_(batch), await_processed_(await_processed) {}

  void Step() override {
    switch (state_) {
      case State::kAwaitRouting:
        state_ = await_processed_ ? State::kAwaitProcessed : State::kCheck;
        return;
      case State::kAwaitProcessed:
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
    if (state_ == State::kAwaitProcessed) return w_->processed != n_;
    // The yield loop, folded: it can only make progress once the worker
    // hands the shard back or finishes the backlog itself.
    return state_ == State::kYield && w_->owner == Owner::kWorker &&
           w_->processed != n_;
  }

 private:
  enum class State {
    kAwaitRouting,
    kAwaitProcessed,
    kCheck,
    kYield,
    kClaim,
    kDrain,
    kSnapshot,
    kClose,
    kDone,
  };
  W* w_;
  const int64_t n_;
  const std::size_t batch_;
  const bool await_processed_;
  State state_ = State::kAwaitRouting;
  BatchDrain drain_;
};

/// A producer handle: one admission per element (ParallelShardedEngine::
/// Admit, then ShardWorker::DrainOnProducer). The publish is coalesced
/// (ParkingPush); the waiter-count read, the
/// ownership CAS, each claim and slide, the check for more, the hand-back
/// and the wake are separate steps, as they are separate atomic operations
/// in the runtime.
template <typename W>
class ProducerThread : public VirtualThread {
 public:
  ProducerThread(W* w, int index, int64_t n, std::size_t batch, int producers)
      : w_(w), index_(index), n_(n), batch_(batch), producers_(producers) {}

  void Step() override {
    switch (state_) {
      case State::kPush:
        if (!push_.Step(w_, index_ * kProducerStride + next_ + 1,
                        DataWake::kCoalesced)) {
          return;
        }
        ++next_;
        state_ = State::kCheckWaiters;
        return;
      case State::kCheckWaiters:  // data_waiters() > 0: the worker sleeps
        state_ = w_->data_waiters > 0 ? State::kTryOwn : State::kWake;
        return;
      case State::kTryOwn:
        if (w_->owner != Owner::kNone) {
          state_ = State::kWake;  // held elsewhere: its bound may miss us
          return;
        }
        w_->owner = Owner::kCaller;
        bound_ = w_->ring.unconsumed();
        drained_ = 0;
        state_ = State::kClaim;
        return;
      case State::kClaim:
        if (drained_ < bound_ && drain_.Claim(w_, std::min(batch_, bound_ -
                                                                  drained_))) {
          state_ = State::kDrain;
        } else {
          state_ = State::kCheckMore;
        }
        return;
      case State::kDrain:
        if (!drain_.Step(w_)) {
          drained_ += drain_.size();
          state_ = State::kClaim;
        }
        return;
      case State::kCheckMore:  // still holding the shard
        more_ = w_->ring.pop_ready_or_settled();
        state_ = State::kDisown;
        return;
      case State::kDisown:
        w_->owner = Owner::kNone;
        if (more_) {
          state_ = State::kWake;
        } else {
          NextAdmission();
        }
        return;
      case State::kWake:  // futex::WakeAll behind its waiter-count gate
        w_->WakeData();
        NextAdmission();
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    return state_ == State::kPush && push_.Parked(w_);
  }

 private:
  enum class State {
    kPush,
    kCheckWaiters,
    kTryOwn,
    kClaim,
    kDrain,
    kCheckMore,
    kDisown,
    kWake,
    kDone,
  };

  void NextAdmission() {
    if (next_ < n_) {
      state_ = State::kPush;
      return;
    }
    state_ = State::kDone;
    if (++w_->producers_done == producers_) w_->routing_done = true;
  }

  W* w_;
  const int index_;
  const int64_t n_;
  const std::size_t batch_;
  const int producers_;
  State state_ = State::kPush;
  int64_t next_ = 0;
  ParkingPush push_;
  std::size_t bound_ = 0;
  std::size_t drained_ = 0;
  bool more_ = false;
  BatchDrain drain_;
};

template <typename W>
struct OwnedShardWorld {
  std::unique_ptr<W> state;
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

/// Wires the step and final checks: `n` elements routed in total, and
/// `expect` the snapshot answer.
template <typename W>
void WireOracles(OwnedShardWorld<W>* ow, int64_t n, int64_t expect) {
  W* s = ow->state.get();
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
    auto ow = std::make_unique<OwnedShardWorld<SpscWorld>>();
    ow->state = std::make_unique<SpscWorld>(window, capacity);
    ow->threads.push_back(std::make_unique<RouterThread<SpscWorld>>(
        ow->state.get(), n, DataWake::kEager, /*close_at_end=*/true));
    ow->threads.push_back(
        std::make_unique<WorkerThread<SpscWorld>>(ow->state.get(), batch));
    ow->threads.push_back(
        std::make_unique<SnapshotThread<SpscWorld>>(ow->state.get(), n));
    WireOracles(ow.get(), n, OracleWindowSum(n, window));
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
    auto ow = std::make_unique<OwnedShardWorld<SpscWorld>>();
    ow->state = std::make_unique<SpscWorld>(window, capacity);
    ow->threads.push_back(std::make_unique<RouterThread<SpscWorld>>(
        ow->state.get(), n, DataWake::kCoalesced, /*close_at_end=*/false));
    ow->threads.push_back(
        std::make_unique<WorkerThread<SpscWorld>>(ow->state.get(), batch));
    ow->threads.push_back(std::make_unique<CoordinatorThread<SpscWorld>>(
        ow->state.get(), n, batch));
    WireOracles(ow.get(), n, OracleWindowSum(n, window));
    return ow;
  });
  ReportAndExpectExhausted(r, what);
}

/// Preemption cap of the producer-runs scenarios. Four actors make ~60
/// steps a schedule: unbounded, even one element per producer exceeds the
/// nightly job's 50M-schedule budget, while bound 5 exhausts the shipped
/// sizes in 3.2M and 4.5M schedules. So the nightly's unbounded setting
/// raises these two scenarios to 5, not further.
constexpr int kProducerRunsMaxPreemptions = 5;

/// Producer-runs admission: two producer handles admitting `first` and
/// `second` elements to one MPMC shard, the worker, and a coordinator that
/// waits for processed == N before it queries. The window covers every
/// element, so the answer does not depend on how the two streams
/// interleave in the ring.
void RunProducerRunsScenario(const char* what, int64_t first, int64_t second,
                             std::size_t capacity, std::size_t batch) {
  const int64_t n = first + second;
  const auto window = static_cast<std::size_t>(n);
  const int64_t expect = OracleWindowSum(first, window) +
                         second * kProducerStride +
                         OracleWindowSum(second, window);
  ExploreOptions opts = ExploreFromEnv();
  if (opts.preemption_bound < 0 ||
      opts.preemption_bound > kProducerRunsMaxPreemptions) {
    opts.preemption_bound = kProducerRunsMaxPreemptions;
  }
  ScheduleExplorer explorer(opts);
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedShardWorld<MpmcWorld>>();
    ow->state = std::make_unique<MpmcWorld>(window, capacity);
    ow->threads.push_back(std::make_unique<ProducerThread<MpmcWorld>>(
        ow->state.get(), 0, first, batch, /*producers=*/2));
    ow->threads.push_back(std::make_unique<ProducerThread<MpmcWorld>>(
        ow->state.get(), 1, second, batch, /*producers=*/2));
    ow->threads.push_back(
        std::make_unique<WorkerThread<MpmcWorld>>(ow->state.get(), batch));
    ow->threads.push_back(std::make_unique<CoordinatorThread<MpmcWorld>>(
        ow->state.get(), n, batch, /*await_processed=*/true));
    WireOracles(ow.get(), n, expect);
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

/// Producer-runs with every publish below half the ring: no publish wakes
/// anyone, so a sleeping worker's backlog is settled only by the producers
/// themselves — drained by the one that takes the shard, or handed to the
/// worker through a wake when the shard is held or backlog is left. The
/// coordinator must see processed == N before it queries.
TEST(ShardDrainModel, ProducerRunsBelowHalfRing) {
  RunProducerRunsScenario("ProducerRunsBelowHalfRing", /*first=*/1,
                          /*second=*/2, /*capacity=*/8, /*batch=*/2);
}

/// A ring of 4: two unconsumed elements reach half the ring, so a
/// coalesced publish may wake the worker while a producer holds the shard
/// or is about to take it.
TEST(ShardDrainModel, ProducerRunsCrossesHalfRing) {
  RunProducerRunsScenario("ProducerRunsCrossesHalfRing", /*first=*/1,
                          /*second=*/2, /*capacity=*/4, /*batch=*/2);
}

}  // namespace
}  // namespace slick::model
