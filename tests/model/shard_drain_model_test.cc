// Deterministic model-checking of the ShardWorker drain loop and its
// epoch-snapshot quiescence edge (tests/model/, DESIGN.md §9).
//
// Three virtual threads over one real SpscRing + SlickDequeInv:
//   * router    — the coordinator's routing half: blocking-pushes values
//                 1..N (push_n protocol incl. the WaitForSpace park),
//                 then closes the ring (ShardWorker::Stop's first half);
//   * worker    — ShardWorker::Run verbatim: pop_n protocol, slide every
//                 popped element into the aggregator, then publish the
//                 cumulative `processed` count (the release-store edge);
//   * snapshot  — the coordinator's quiescent read: parked until
//                 processed == N (the acquire-load spin), then reads
//                 aggregator.query() exactly once.
//
// Checked on EVERY explored schedule: processed is monotone and equals
// the number of slides; the snapshot fires only at true quiescence and
// its answer equals the sequential oracle (sum of the last `window`
// routed values); at termination every routed element was slid exactly
// once. A protocol edit that lets the snapshot observe a half-drained
// aggregator, or strands elements in the ring, fails here with the
// exact interleaving printed.

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
using runtime::SpscRing;

struct ShardWorld {
  ShardWorld(std::size_t window, std::size_t min_capacity)
      : ring(min_capacity), agg(window) {}

  SpscRing<int64_t> ring;
  SlickDequeInv<ops::SumInt> agg;
  int64_t routed = 0;     ///< elements accepted by push (router-side count)
  int64_t processed = 0;  ///< models ShardWorker::processed_ (SC step model)
  int64_t slides = 0;     ///< ground truth: slide() invocations
  bool snapshot_taken = false;
  int64_t snapshot_value = 0;
  int64_t snapshot_processed_seen = 0;
};

/// Router: push_n(1..N) with the full WaitForSpace snapshot/recheck/park
/// protocol (same step machine as the SpscRing model's producer), then
/// close(). The ring is never closed before all N are accepted, matching
/// ParallelEngine's shutdown order (route everything, then Stop()).
class RouterThread : public VirtualThread {
 public:
  RouterThread(ShardWorld* w, int64_t n) : w_(w), n_(n) {}

  void Step() override {
    switch (state_) {
      case State::kTryPush: {
        const int64_t v = next_ + 1;  // route 1..N so sums are non-trivial
        if (w_->ring.try_push(v)) {
          ++w_->routed;
          ++next_;
          if (next_ == n_) state_ = State::kClose;
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      }
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        if (w_->ring.push_space_or_closed()) {
          state_ = State::kTryPush;
        } else {
          state_ = State::kParked;
        }
        return;
      case State::kParked:
        state_ = State::kTryPush;
        return;
      case State::kClose:
        w_->ring.close();
        state_ = State::kDone;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
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
  State state_ = State::kTryPush;
  int64_t next_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Worker: ShardWorker::Run decomposed into scheduler-visible steps. One
/// step pops a batch (try_pop_n); draining the batch into the aggregator
/// is a separate step per element, and the processed-count publish is its
/// own step after the batch — so the snapshot thread can interleave at
/// every point the real coordinator could observe.
class WorkerThread : public VirtualThread {
 public:
  WorkerThread(ShardWorld* w, std::size_t batch) : w_(w), batch_(batch) {}

  void Step() override {
    switch (state_) {
      case State::kTryPop: {
        std::vector<int64_t> buf(batch_);
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          pending_.assign(buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
          slid_ = 0;
          state_ = State::kSlide;
        } else {
          state_ = State::kCheckClosed;
        }
        return;
      }
      case State::kSlide:
        w_->agg.slide(pending_[slid_]);
        ++w_->slides;
        if (++slid_ == pending_.size()) state_ = State::kPublish;
        return;
      case State::kPublish:
        // processed_.store(done, release) — after this step the snapshot
        // thread may legitimately observe the new count.
        w_->processed += static_cast<int64_t>(pending_.size());
        state_ = State::kTryPop;
        return;
      case State::kCheckClosed:
        state_ =
            w_->ring.closed() ? State::kFinalPop : State::kSnapshotEvent;
        return;
      case State::kFinalPop: {
        // pop_n's post-close re-poll: elements published before close()
        // must drain; 0 is the shutdown signal.
        std::vector<int64_t> buf(batch_);
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          pending_.assign(buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
          slid_ = 0;
          state_ = State::kSlide;
        } else {
          state_ = State::kDone;
        }
        return;
      }
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        if (w_->ring.pop_ready_or_settled()) {
          state_ = State::kTryPop;
        } else {
          state_ = State::kParked;
        }
        return;
      case State::kParked:
        state_ = State::kTryPop;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    return state_ == State::kParked &&
           w_->ring.tail_event_word() == event_snapshot_;
  }

 private:
  enum class State {
    kTryPop,
    kSlide,
    kPublish,
    kCheckClosed,
    kFinalPop,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDone,
  };
  ShardWorld* w_;
  const std::size_t batch_;
  State state_ = State::kTryPop;
  std::vector<int64_t> pending_;
  std::size_t slid_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Snapshot: the coordinator's quiescent read. Parked until the worker
/// has published processed == N (modeling the acquire-load spin in
/// ParallelEngine's checkpoint/query path), then reads the aggregate once.
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
      fail("worker slid an element the router never accepted");
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

void RunScenario(const char* what, int64_t n, std::size_t window,
                 std::size_t capacity, std::size_t batch) {
  ScheduleExplorer explorer(ExploreFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedShardWorld>();
    ow->state = std::make_unique<ShardWorld>(window, capacity);
    ow->threads.push_back(
        std::make_unique<RouterThread>(ow->state.get(), n));
    ow->threads.push_back(
        std::make_unique<WorkerThread>(ow->state.get(), batch));
    ow->threads.push_back(
        std::make_unique<SnapshotThread>(ow->state.get(), n));
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

}  // namespace
}  // namespace slick::model
