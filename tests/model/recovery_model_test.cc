// Deterministic model-checking of the supervised drain protocol's crash
// recovery (tests/model/, DESIGN.md §9 and §12): a worker that fail-stops
// mid-drain — before or after the slide, at any explored interleaving with
// the router — must be restorable from its last checkpoint plus a replay
// of the ring's unreleased span, with every routed element contributing to
// the final aggregate EXACTLY once.
//
// Three virtual threads over one real SpscRing:
//   * router     — blocking-pushes 1..N (try_push + WaitForSpace park
//                  protocol), then closes the ring;
//   * worker     — ShardWorker::Run's supervised loop verbatim, decomposed
//                  into scheduler-visible steps: TryClaimPop, per-element
//                  slide, deferred ReleasePop gated on a checkpoint (with
//                  the capacity backstop), processed publish, the
//                  WaitForData park (on tail != claim — the deferred-release
//                  predicate), and the post-close drain. A scripted kill
//                  fail-stops it at a chosen batch ordinal on a chosen side
//                  of the slide;
//   * supervisor — parked until the worker is dead; then restores the
//                  checkpointed {sum, done}, rewinds the ring's claim
//                  cursor (ResetClaims), and respawns the worker.
//
// Checked on EVERY explored schedule: the published processed count never
// exceeds the slides that back it; releases never pass the claim cursor;
// at termination the ring is fully drained, released, and the recovered
// aggregate equals the sequential oracle sum(1..N) — replayed slides are
// observable in the slide count but never in the answer.

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

enum class Side { kBeforeSlide, kAfterSlide };

struct RecoveryWorld {
  explicit RecoveryWorld(std::size_t min_capacity) : ring(min_capacity) {}

  SpscRing<int64_t> ring;
  // The modeled aggregator: an unbounded sum (window >= stream), so
  // "aggregated exactly once" is equality with sum(1..N).
  int64_t sum = 0;
  int64_t routed = 0;
  int64_t processed = 0;  ///< models ShardWorker::processed_
  int64_t slides = 0;     ///< ground truth: slide() invocations (incl. replay)
  // Checkpoint store (models ShardWorker::last_good_, pre-decoded).
  int64_t ckpt_sum = 0;
  int64_t ckpt_done = 0;
  // Crash/recovery handshake.
  bool worker_dead = false;
  bool respawn_token = false;  ///< supervisor set; worker consumes
  int64_t restored_done = 0;   ///< what the respawned worker resumes from
  bool worker_done = false;
  int recoveries = 0;
  bool kill_fired = false;
};

/// Router: try_push(1..N) with the WaitForSpace snapshot/recheck/park
/// protocol, then close() — identical to the shard-drain model's router.
class RouterThread : public VirtualThread {
 public:
  RouterThread(RecoveryWorld* w, int64_t n) : w_(w), n_(n) {}

  void Step() override {
    switch (state_) {
      case State::kTryPush: {
        const int64_t v = next_ + 1;
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
        state_ = w_->ring.push_space_or_closed() ? State::kTryPush
                                                 : State::kParked;
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
  RecoveryWorld* w_;
  const int64_t n_;
  State state_ = State::kTryPush;
  int64_t next_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Worker: the supervised drain loop with deferred releases and a scripted
/// fail-stop. After a crash it parks in kDead until the supervisor's
/// respawn token, then resumes exactly like a respawned Run(): done =
/// restored count, no pending releases, claims starting from the rewound
/// claim cursor.
class SupervisedWorkerThread : public VirtualThread {
 public:
  SupervisedWorkerThread(RecoveryWorld* w, std::size_t batch,
                         std::size_t interval, uint64_t kill_batch, Side side)
      : w_(w),
        batch_(batch),
        interval_(interval),
        kill_batch_(kill_batch),
        side_(side) {}

  void Step() override {
    switch (state_) {
      case State::kClaim:
      case State::kFinalClaim: {
        const bool final_pass = state_ == State::kFinalClaim;
        std::size_t n = 0;
        int64_t* span = w_->ring.TryClaimPop(batch_, &n);
        if (span != nullptr) {
          ++batches_;
          pending_.assign(span, span + n);
          slid_ = 0;
          if (ShouldDie(Side::kBeforeSlide)) {
            Die();
            return;
          }
          state_ = State::kSlide;
        } else {
          state_ = final_pass ? State::kFinalRelease : State::kCheckClosed;
        }
        return;
      }
      case State::kSlide:
        w_->sum += pending_[slid_];
        ++w_->slides;
        if (++slid_ == pending_.size()) {
          if (ShouldDie(Side::kAfterSlide)) {
            Die();
            return;
          }
          state_ = State::kAccount;
        }
        return;
      case State::kAccount:
        // done += n; pending_release += n; checkpoint when due, or when the
        // capacity backstop would otherwise let unreleased slots wedge the
        // ring (mirrors ShardWorker::Run).
        done_ += static_cast<int64_t>(pending_.size());
        pending_release_ += pending_.size();
        if (done_ - w_->ckpt_done >= static_cast<int64_t>(interval_) ||
            pending_release_ + batch_ >= w_->ring.capacity()) {
          state_ = State::kCheckpoint;
        } else {
          state_ = State::kPublish;
        }
        return;
      case State::kCheckpoint:
        // Serialize-validate-commit, then release the covered slots. One
        // step: the frame write has no scheduler-visible interleaving.
        w_->ckpt_sum = w_->sum;
        w_->ckpt_done = done_;
        w_->ring.ReleasePop(pending_release_);
        pending_release_ = 0;
        state_ = State::kPublish;
        return;
      case State::kPublish:
        w_->processed = done_;
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
        // WaitForData's own predicate; under deferred releases it wakes on
        // unclaimed data (tail != claim), not mere occupancy (tail != head).
        state_ = w_->ring.pop_ready_or_settled() ? State::kClaim
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kClaim;
        return;
      case State::kFinalRelease:
        if (pending_release_ > 0) {
          w_->ring.ReleasePop(pending_release_);
          pending_release_ = 0;
        }
        w_->processed = done_;
        w_->worker_done = true;
        state_ = State::kDone;
        return;
      case State::kDead:
        // Respawn: consume the supervisor's token and resume as a fresh
        // Run() — restored done count, empty pending, rewound claims.
        w_->respawn_token = false;
        done_ = w_->restored_done;
        pending_release_ = 0;
        pending_.clear();
        slid_ = 0;
        state_ = State::kClaim;
        return;
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    if (state_ == State::kDead) return !w_->respawn_token;
    return state_ == State::kParked &&
           w_->ring.tail_event_word() == event_snapshot_;
  }

 private:
  bool ShouldDie(Side here) {
    if (w_->kill_fired || side_ != here) return false;
    if (batches_ < kill_batch_) return false;
    w_->kill_fired = true;
    return true;
  }

  void Die() {
    // Fail-stop: abandon the claimed span (claim cursor already advanced),
    // publish nothing, flag the supervisor.
    w_->worker_dead = true;
    state_ = State::kDead;
  }

  enum class State {
    kClaim,
    kSlide,
    kAccount,
    kCheckpoint,
    kPublish,
    kCheckClosed,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kFinalClaim,
    kFinalRelease,
    kDead,
    kDone,
  };
  RecoveryWorld* w_;
  const std::size_t batch_;
  const std::size_t interval_;
  const uint64_t kill_batch_;  ///< die while draining this batch ordinal
  const Side side_;
  State state_ = State::kClaim;
  std::vector<int64_t> pending_;
  std::size_t slid_ = 0;
  std::size_t pending_release_ = 0;
  uint64_t batches_ = 0;
  int64_t done_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Supervisor: RecoverAndRestart as one step (join/restore/rewind/respawn
/// have no scheduler-visible interleaving with a dead worker — the real
/// code orders them with thread join/spawn).
class SupervisorThread : public VirtualThread {
 public:
  explicit SupervisorThread(RecoveryWorld* w) : w_(w) {}

  void Step() override {
    w_->worker_dead = false;
    w_->sum = w_->ckpt_sum;
    w_->restored_done = w_->ckpt_done;
    w_->processed = w_->ckpt_done;
    w_->ring.ResetClaims();
    ++w_->recoveries;
    w_->respawn_token = true;
  }
  bool Done() const override { return w_->worker_done; }
  bool Parked() const override { return !w_->worker_dead; }

 private:
  RecoveryWorld* w_;
};

struct OwnedRecoveryWorld {
  std::unique_ptr<RecoveryWorld> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

void WireOracles(OwnedRecoveryWorld* ow, int64_t n) {
  RecoveryWorld* s = ow->state.get();
  const int64_t expect = n * (n + 1) / 2;
  ow->world.check_step = [s](const auto& fail) {
    if (s->processed > s->slides) {
      fail("processed count published ahead of the slides it covers");
      return;
    }
    if (s->slides < s->ckpt_done) {
      fail("checkpoint covers slides that never happened");
      return;
    }
    if (s->ring.unreleased() > s->ring.capacity()) {
      fail("release cursor ran past the claim cursor");
    }
  };
  ow->world.check_final = [s, n, expect](const auto& fail) {
    if (s->routed != n) {
      fail("router terminated before routing everything");
      return;
    }
    if (!s->ring.empty() || s->ring.unconsumed() != 0 ||
        s->ring.unreleased() != 0) {
      fail("ring not fully drained+released at termination: size=" +
           std::to_string(s->ring.size()));
      return;
    }
    if (s->processed != n) {
      fail("processed != routed at termination: " +
           std::to_string(s->processed));
      return;
    }
    if (s->sum != expect) {
      fail("recovered aggregate diverged from oracle (exactly-once "
           "violated): got " +
           std::to_string(s->sum) + " want " + std::to_string(expect) +
           " after " + std::to_string(s->recoveries) + " recoveries");
      return;
    }
    if (s->kill_fired && s->recoveries == 0) {
      fail("worker died but was never recovered");
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

void RunScenario(const char* what, int64_t n, std::size_t capacity,
                 std::size_t batch, std::size_t interval, uint64_t kill_batch,
                 Side side) {
  ScheduleExplorer explorer(ExploreFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedRecoveryWorld>();
    ow->state = std::make_unique<RecoveryWorld>(capacity);
    ow->threads.push_back(std::make_unique<RouterThread>(ow->state.get(), n));
    ow->threads.push_back(std::make_unique<SupervisedWorkerThread>(
        ow->state.get(), batch, interval, kill_batch, side));
    ow->threads.push_back(
        std::make_unique<SupervisorThread>(ow->state.get()));
    WireOracles(ow.get(), n);
    return ow;
  });
  ReportAndExpectExhausted(r, what);
}

/// Death before the first checkpoint exists: recovery must fall back to a
/// fresh aggregator (ckpt = {0, 0}) and replay the whole ring.
TEST(RecoveryModel, KillBeforeFirstCheckpoint) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("KillBeforeFirstCheckpoint", n, /*capacity=*/4, /*batch=*/2,
              /*interval=*/2, /*kill_batch=*/1, Side::kBeforeSlide);
}

/// Death after the slide but before publish/checkpoint: the aggregator
/// absorbed the doomed batch, and the restore must discard it (the batch
/// replays, so counting it twice is the bug this scenario hunts).
TEST(RecoveryModel, KillAfterSlideDiscardsDoubleCount) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("KillAfterSlideDiscardsDoubleCount", n, /*capacity=*/4,
              /*batch=*/2, /*interval=*/2, /*kill_batch=*/1,
              Side::kAfterSlide);
}

/// Death on a later batch, past a committed checkpoint: recovery restores
/// the checkpoint and replays only the unreleased suffix.
TEST(RecoveryModel, KillPastCommittedCheckpoint) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 4));
  RunScenario("KillPastCommittedCheckpoint", n, /*capacity=*/4, /*batch=*/2,
              /*interval=*/2, /*kill_batch=*/2, Side::kBeforeSlide);
}

/// Per-element batches maximize the interleaving points around the
/// checkpoint/release/publish triplet.
TEST(RecoveryModel, PerElementBatchKill) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("PerElementBatchKill", n, /*capacity=*/4, /*batch=*/1,
              /*interval=*/1, /*kill_batch=*/2, Side::kAfterSlide);
}

/// A kill ordinal past the stream's batch count: the trigger never fires
/// and the supervised path must degrade to the plain drain (recoveries ==
/// 0, answers exact).
TEST(RecoveryModel, UnfiredTriggerIsInvisible) {
  const auto n = static_cast<int64_t>(EnvKnob("SLICK_MODEL_OPS", 3));
  RunScenario("UnfiredTriggerIsInvisible", n, /*capacity=*/4, /*batch=*/2,
              /*interval=*/2, /*kill_batch=*/99, Side::kBeforeSlide);
}

}  // namespace
}  // namespace slick::model
