// Deterministic model-checking of SpscRing (tests/model/, DESIGN.md §9):
// exhaustive bounded-preemption exploration of producer/consumer/close
// interleavings against a sequential FIFO oracle. The step machines below
// mirror push_n/pop_n line-for-line — each try-op, eventcount snapshot and
// wait-path recheck is one scheduler-visible step, and parking follows the
// exact snapshot/recheck/wait protocol of WaitForData/WaitForSpace (via
// the ring's *_event_word() and pop_ready_or_settled()/
// push_space_or_closed() introspection hooks — the real wake predicates,
// not restatements).
//
// Checked on EVERY explored schedule:
//   * FIFO + no double-consume + no reorder: the popped sequence is
//     exactly 0,1,2,... (a prefix of the accepted pushes, in order);
//   * conservation: accepted == popped + still-in-ring, and at
//     termination the ring is drained (popped == accepted);
//   * no lost wakeup: a parked thread whose wake the protocol misses
//     surfaces as a deadlock (explorer reports no enabled thread).
//
// Budget knobs (PR gate defaults in brackets; the nightly CI job raises
// them): SLICK_MODEL_OPS [3] elements per producer, SLICK_MODEL_CAPACITY
// [2] min ring capacity, SLICK_MODEL_PREEMPTIONS [4] bound (-1 =
// unbounded), SLICK_MODEL_MAX_SCHEDULES [2M] runaway cap.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/virtual_scheduler.h"
#include "runtime/spsc_ring.h"

namespace slick::model {
namespace {

using runtime::SpscRing;

struct RingWorld;  // forward: shared state all three threads touch

/// Producer: blocking-push values 0..n-1 (mirrors SpscRing::push_n with a
/// batch of one), then optionally close. States map 1:1 onto the code
/// under test; kSnapshotEvent/kRecheck/park replicate WaitForSpace.
class ProducerThread : public VirtualThread {
 public:
  ProducerThread(RingWorld* w, int n, bool close_when_done)
      : w_(w), n_(n), close_when_done_(close_when_done) {}

  void Step() override;
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override;

  int accepted() const { return accepted_; }

 private:
  enum class State {
    kTryPush,
    kCheckClosed,    // push_n: `if (closed) break;`
    kSnapshotEvent,  // WaitForSpace: e = head_event
    kRecheck,        // WaitForSpace: re-check space/closed before parking
    kParked,         // head_event.wait(e) — value-based wake
    kClose,
    kDone,
  };
  RingWorld* w_;
  const int n_;
  const bool close_when_done_;
  State state_ = State::kTryPush;
  int next_ = 0;
  int accepted_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Consumer: mirrors the ShardWorker drain loop's use of pop_n — pop
/// batches until the ring is closed *and* drained. kSnapshotEvent /
/// kRecheck / park replicate WaitForData; kFinalPop is pop_n's
/// post-close re-poll ("elements published before close() must drain").
class ConsumerThread : public VirtualThread {
 public:
  ConsumerThread(RingWorld* w, std::size_t batch) : w_(w), batch_(batch) {}

  void Step() override;
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override;

 private:
  enum class State {
    kTryPop,
    kCheckClosed,
    kFinalPop,
    kSnapshotEvent,  // WaitForData: e = tail_event
    kRecheck,
    kParked,  // tail_event.wait(e)
    kDone,
  };
  RingWorld* w_;
  const std::size_t batch_;
  State state_ = State::kTryPop;
  uint32_t event_snapshot_ = 0;
};

/// Closer: one-step close() racing both endpoints.
class CloserThread : public VirtualThread {
 public:
  explicit CloserThread(RingWorld* w) : w_(w) {}
  void Step() override;
  bool Done() const override { return done_; }
  bool Parked() const override { return false; }

 private:
  RingWorld* w_;
  bool done_ = false;
};

struct RingWorld {
  explicit RingWorld(std::size_t min_capacity) : ring(min_capacity) {}

  SpscRing<int> ring;
  std::vector<int> popped;  // FIFO oracle: must read 0,1,2,...
  int accepted = 0;
};

bool ProducerThread::Parked() const {
  return state_ == State::kParked &&
         w_->ring.head_event_word() == event_snapshot_;
}

void ProducerThread::Step() {
  switch (state_) {
    case State::kTryPush: {
      const int v = next_;
      if (w_->ring.try_push(v)) {
        ++accepted_;
        ++w_->accepted;
        ++next_;
        if (next_ == n_) {
          state_ = close_when_done_ ? State::kClose : State::kDone;
        }
      } else {
        state_ = State::kCheckClosed;
      }
      return;
    }
    case State::kCheckClosed:
      // push_n gives up on a closed ring (remaining elements rejected).
      state_ = w_->ring.closed() ? State::kDone : State::kSnapshotEvent;
      return;
    case State::kSnapshotEvent:
      event_snapshot_ = w_->ring.head_event_word();
      state_ = State::kRecheck;
      return;
    case State::kRecheck:
      // WaitForSpace: the ring's own wake predicate (space freed or
      // closed) → retry; else park on the event word (wake = word moved
      // past the snapshot).
      if (w_->ring.push_space_or_closed()) {
        state_ = State::kTryPush;
      } else {
        state_ = State::kParked;
      }
      return;
    case State::kParked:
      // Scheduled again ⇒ the wake predicate held: wait() returned.
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

bool ConsumerThread::Parked() const {
  return state_ == State::kParked &&
         w_->ring.tail_event_word() == event_snapshot_;
}

void ConsumerThread::Step() {
  std::vector<int> buf(batch_);
  switch (state_) {
    case State::kTryPop: {
      const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
      if (k > 0) {
        w_->popped.insert(w_->popped.end(), buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
        // pop_n returned > 0: the worker loop calls pop_n again.
      } else {
        state_ = State::kCheckClosed;
      }
      return;
    }
    case State::kCheckClosed:
      state_ = w_->ring.closed() ? State::kFinalPop : State::kSnapshotEvent;
      return;
    case State::kFinalPop: {
      // pop_n: `return try_pop_n(...)` after observing closed — 0 is the
      // shutdown signal, anything else goes back to the worker loop.
      const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
      if (k > 0) {
        w_->popped.insert(w_->popped.end(), buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
        state_ = State::kTryPop;
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
      // WaitForData: the ring's own wake predicate (unclaimed data, or
      // closed and settled) → retry; else park.
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

void CloserThread::Step() {
  w_->ring.close();
  done_ = true;
}

// ---------------------------------------------------------------------------
// Scenario factories
// ---------------------------------------------------------------------------

struct OwnedWorld {
  std::unique_ptr<RingWorld> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

/// Wires the common FIFO/conservation oracles: popped must always read
/// 0,1,2,... and never outrun the accepted count; at termination the ring
/// must be drained and every accepted element popped exactly once.
void WireOracles(OwnedWorld* ow, bool expect_full_drain) {
  RingWorld* s = ow->state.get();
  ow->world.check_step = [s](const auto& fail) {
    if (s->popped.size() > static_cast<std::size_t>(s->accepted)) {
      fail("double-consume: popped more than accepted");
      return;
    }
    for (std::size_t i = 0; i < s->popped.size(); ++i) {
      if (s->popped[i] != static_cast<int>(i)) {
        fail("FIFO violation at index " + std::to_string(i) + ": got " +
             std::to_string(s->popped[i]));
        return;
      }
    }
    const std::size_t in_ring = s->ring.size();
    if (s->popped.size() + in_ring != static_cast<std::size_t>(s->accepted)) {
      fail("conservation violated mid-run: accepted=" +
           std::to_string(s->accepted) + " popped=" +
           std::to_string(s->popped.size()) + " in_ring=" +
           std::to_string(in_ring));
    }
  };
  ow->world.check_final = [s, expect_full_drain](const auto& fail) {
    if (!expect_full_drain) {
      // try-op scenario: the consumer may stop early; conservation only.
      if (s->popped.size() + s->ring.size() !=
          static_cast<std::size_t>(s->accepted)) {
        fail("conservation violated at termination");
      }
      return;
    }
    if (s->popped.size() != static_cast<std::size_t>(s->accepted) ||
        !s->ring.empty()) {
      fail("lost elements at termination: accepted=" +
           std::to_string(s->accepted) + " popped=" +
           std::to_string(s->popped.size()) + " in_ring=" +
           std::to_string(s->ring.size()));
    }
  };
  for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
}

struct ModelConfig {
  int ops;
  std::size_t capacity;
  std::size_t batch;
  ExploreOptions explore;
};

ModelConfig ConfigFromEnv() {
  ModelConfig cfg;
  cfg.ops = static_cast<int>(EnvKnob("SLICK_MODEL_OPS", 3));
  cfg.capacity =
      static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2));
  cfg.batch = 2;
  cfg.explore.preemption_bound =
      static_cast<int>(EnvKnob("SLICK_MODEL_PREEMPTIONS", 4));
  cfg.explore.max_schedules = static_cast<uint64_t>(
      EnvKnob("SLICK_MODEL_MAX_SCHEDULES", 2'000'000));
  return cfg;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Producer blocking-pushes N then closes; consumer drains via the full
/// pop_n protocol. The steady-state shape of the sharded runtime.
TEST(SpscRingModel, ProducerConsumerClose) {
  const ModelConfig cfg = ConfigFromEnv();
  ScheduleExplorer explorer(cfg.explore);
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWorld>();
    ow->state = std::make_unique<RingWorld>(cfg.capacity);
    ow->threads.push_back(std::make_unique<ProducerThread>(
        ow->state.get(), cfg.ops, /*close_when_done=*/true));
    ow->threads.push_back(
        std::make_unique<ConsumerThread>(ow->state.get(), cfg.batch));
    WireOracles(ow.get(), /*expect_full_drain=*/true);
    return ow;
  });
  ReportAndExpectExhausted(r, "ProducerConsumerClose");
}

/// A third thread calls close() at every possible point while the
/// producer is still pushing — the shutdown race. Elements accepted
/// before the close lands must still drain; pushes after it must be
/// rejected, never stranded.
TEST(SpscRingModel, ConcurrentCloseRace) {
  const ModelConfig cfg = ConfigFromEnv();
  ScheduleExplorer explorer(cfg.explore);
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWorld>();
    ow->state = std::make_unique<RingWorld>(cfg.capacity);
    ow->threads.push_back(std::make_unique<ProducerThread>(
        ow->state.get(), cfg.ops, /*close_when_done=*/false));
    ow->threads.push_back(
        std::make_unique<ConsumerThread>(ow->state.get(), cfg.batch));
    ow->threads.push_back(std::make_unique<CloserThread>(ow->state.get()));
    WireOracles(ow.get(), /*expect_full_drain=*/true);
    return ow;
  });
  ReportAndExpectExhausted(r, "ConcurrentCloseRace");
}

/// Capacity sweep up to the acceptance bound (≤ 4): the wrap-around and
/// full/empty boundary cases shift with capacity, so each is its own
/// exhaustive search.
TEST(SpscRingModel, CapacitySweep) {
  ModelConfig cfg = ConfigFromEnv();
  for (std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
    ScheduleExplorer explorer(cfg.explore);
    const ExploreResult r = explorer.Explore([&] {
      auto ow = std::make_unique<OwnedWorld>();
      ow->state = std::make_unique<RingWorld>(cap);
      ow->threads.push_back(std::make_unique<ProducerThread>(
          ow->state.get(), cfg.ops, /*close_when_done=*/true));
      ow->threads.push_back(
          std::make_unique<ConsumerThread>(ow->state.get(), cfg.batch));
      WireOracles(ow.get(), /*expect_full_drain=*/true);
      return ow;
    });
    ReportAndExpectExhausted(
        r, ("CapacitySweep/cap" + std::to_string(cap)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Claim-holding consumer (PR 5): the supervised worker defers ReleasePop
// until a checkpoint covers the claimed slots, so claims outlive batches
// and may still be unreleased when the producer closes. The consumer below
// drains via TryClaimPop with releases batched behind a threshold — the
// regression this hunts is a close() landing while a claimed span is held:
// the remainder must still drain exactly once (no re-handout of the held
// span, no stranded suffix).
// ---------------------------------------------------------------------------

/// Consumer draining via claim-range primitives with deferred releases
/// (mirrors ShardWorker's supervised loop shape, minus the aggregator).
class ClaimingConsumerThread : public VirtualThread {
 public:
  ClaimingConsumerThread(RingWorld* w, std::size_t batch,
                         std::size_t release_threshold)
      : w_(w), batch_(batch), release_threshold_(release_threshold) {}

  void Step() override {
    switch (state_) {
      case State::kClaim:
      case State::kFinalClaim: {
        const bool final_pass = state_ == State::kFinalClaim;
        std::size_t n = 0;
        int* span = w_->ring.TryClaimPop(batch_, &n);
        if (span != nullptr) {
          // Observing the span IS the consume: a double-handout of held
          // slots shows up as a FIFO/double-consume oracle failure.
          w_->popped.insert(w_->popped.end(), span, span + n);
          pending_ += n;
          state_ = State::kMaybeRelease;
        } else {
          state_ = final_pass ? State::kFinalRelease : State::kCheckClosed;
        }
        return;
      }
      case State::kMaybeRelease:
        // Deferred-release model: slots go back only once a "checkpoint"
        // (threshold) covers them — claims outlive batches meanwhile.
        if (pending_ >= release_threshold_) {
          w_->ring.ReleasePop(pending_);
          pending_ = 0;
        }
        state_ = State::kClaim;
        return;
      case State::kCheckClosed:
        state_ = w_->ring.closed() ? State::kFinalClaim : State::kSnapshotEvent;
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        // WaitForData under deferred releases wakes on unclaimed data
        // (tail != claim), not occupancy — held claims keep size() > 0
        // forever; the ring's own predicate says exactly that.
        if (w_->ring.pop_ready_or_settled()) {
          state_ = State::kClaim;
        } else {
          state_ = State::kParked;
        }
        return;
      case State::kParked:
        state_ = State::kClaim;
        return;
      case State::kFinalRelease:
        if (pending_ > 0) {
          w_->ring.ReleasePop(pending_);
          pending_ = 0;
        }
        state_ = State::kDone;
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
    kClaim,
    kMaybeRelease,
    kCheckClosed,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kFinalClaim,
    kFinalRelease,
    kDone,
  };
  RingWorld* w_;
  const std::size_t batch_;
  const std::size_t release_threshold_;
  State state_ = State::kClaim;
  std::size_t pending_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Oracles for the claiming consumer: conservation is stated against the
/// claim cursor (popped + unconsumed == accepted) because held claims are
/// both "popped" (observed) and still occupying ring slots; at termination
/// everything must also be *released* (head caught up with claim).
void WireClaimOracles(OwnedWorld* ow) {
  RingWorld* s = ow->state.get();
  ow->world.check_step = [s](const auto& fail) {
    if (s->popped.size() > static_cast<std::size_t>(s->accepted)) {
      fail("double-consume: claimed more than accepted");
      return;
    }
    for (std::size_t i = 0; i < s->popped.size(); ++i) {
      if (s->popped[i] != static_cast<int>(i)) {
        fail("FIFO violation at index " + std::to_string(i) + ": got " +
             std::to_string(s->popped[i]));
        return;
      }
    }
    if (s->popped.size() + s->ring.unconsumed() !=
        static_cast<std::size_t>(s->accepted)) {
      fail("claim conservation violated mid-run: accepted=" +
           std::to_string(s->accepted) + " claimed=" +
           std::to_string(s->popped.size()) + " unconsumed=" +
           std::to_string(s->ring.unconsumed()));
    }
  };
  ow->world.check_final = [s](const auto& fail) {
    if (s->popped.size() != static_cast<std::size_t>(s->accepted) ||
        s->ring.unconsumed() != 0 || s->ring.unreleased() != 0 ||
        !s->ring.empty()) {
      fail("held claim stranded elements at close: accepted=" +
           std::to_string(s->accepted) + " claimed=" +
           std::to_string(s->popped.size()) + " unreleased=" +
           std::to_string(s->ring.unreleased()));
    }
  };
  for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
}

/// Producer pushes N then closes while the consumer may be holding an
/// unreleased claimed span (threshold 3 with batch 2 guarantees held spans
/// at most steps). Every interleaving must drain exactly once.
TEST(SpscRingModel, CloseWithHeldClaimDrainsOnce) {
  const ModelConfig cfg = ConfigFromEnv();
  ScheduleExplorer explorer(cfg.explore);
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWorld>();
    // Capacity 4: roomy enough that close can land mid-hold, small enough
    // to keep the space exhaustive.
    ow->state = std::make_unique<RingWorld>(4);
    ow->threads.push_back(std::make_unique<ProducerThread>(
        ow->state.get(), cfg.ops, /*close_when_done=*/true));
    ow->threads.push_back(std::make_unique<ClaimingConsumerThread>(
        ow->state.get(), /*batch=*/2, /*release_threshold=*/3));
    WireClaimOracles(ow.get());
    return ow;
  });
  ReportAndExpectExhausted(r, "CloseWithHeldClaimDrainsOnce");
}

// ---------------------------------------------------------------------------
// Explorer self-tests: prove the checker can actually fail.
// ---------------------------------------------------------------------------

/// Two independent single-step threads → exactly C(2,1) = 2 schedules;
/// three steps split 2+1 → C(3,1) = 3. Pins the DFS enumeration itself.
class NoopThread : public VirtualThread {
 public:
  explicit NoopThread(int steps) : remaining_(steps) {}
  void Step() override { --remaining_; }
  bool Done() const override { return remaining_ == 0; }
  bool Parked() const override { return false; }

 private:
  int remaining_;
};

struct NoopWorld {
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

TEST(ScheduleExplorerSelfTest, EnumeratesAllInterleavings) {
  ExploreOptions opts;
  opts.preemption_bound = -1;  // unbounded: the full C(m+n, m) space
  ScheduleExplorer explorer(opts);
  const ExploreResult r = explorer.Explore([] {
    auto ow = std::make_unique<NoopWorld>();
    ow->threads.push_back(std::make_unique<NoopThread>(2));
    ow->threads.push_back(std::make_unique<NoopThread>(2));
    for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
    return ow;
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 6u);  // C(4, 2)
}

/// A waiter parked on an event word nobody ever bumps: the explorer must
/// report the lost wakeup as a deadlock on every schedule that parks.
class BrokenWaiter : public VirtualThread {
 public:
  void Step() override { parked_ = true; }  // parks; nobody will wake it
  bool Done() const override { return false; }
  bool Parked() const override { return parked_; }

 private:
  bool parked_ = false;
};

TEST(ScheduleExplorerSelfTest, DetectsLostWakeupAsDeadlock) {
  ExploreOptions opts;
  ScheduleExplorer explorer(opts);
  const ExploreResult r = explorer.Explore([] {
    auto ow = std::make_unique<NoopWorld>();
    ow->threads.push_back(std::make_unique<BrokenWaiter>());
    ow->threads.push_back(std::make_unique<NoopThread>(1));
    for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
    return ow;
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;
}

/// The preemption bound prunes: the same 2×2 world explored with bound 0
/// admits only the two run-to-completion schedules.
TEST(ScheduleExplorerSelfTest, PreemptionBoundPrunes) {
  ExploreOptions opts;
  opts.preemption_bound = 0;
  ScheduleExplorer explorer(opts);
  const ExploreResult r = explorer.Explore([] {
    auto ow = std::make_unique<NoopWorld>();
    ow->threads.push_back(std::make_unique<NoopThread>(2));
    ow->threads.push_back(std::make_unique<NoopThread>(2));
    for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
    return ow;
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 2u);  // AABB and BBAA only
}

}  // namespace
}  // namespace slick::model
