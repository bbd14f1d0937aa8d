// Deterministic model-checking of the two in-process rings, SpscRing
// (DESIGN.md §9) and MpmcRing (DESIGN.md §14): exhaustive bounded-
// preemption exploration of producer/consumer/close interleavings against
// sequential oracles. Both rings are RingCore skeletons with the same
// consumer side and wait protocol, so one set of step machines, templated
// on the ring, models both. Only the producer's publish differs, picked by
// Ring::kMultiProducer:
//   * SpscRing: one try_push step per element (push_n with a batch of one);
//   * MpmcRing: claim (the tail_ CAS) and publish (the per-slot seq store)
//     are SEPARATE scheduler-visible steps — the whole point of the MPMC
//     protocol is that another producer's claim or publish, a consumer
//     claim, or a close() can land between them, and the producer below
//     exposes every such window.
// Each try-op, eventcount snapshot and wait-path recheck is one
// scheduler-visible step, and parking follows the exact snapshot/recheck/
// wait protocol of WaitForData/WaitForSpace via the ring's *_event_word()
// and pop_ready_or_settled()/push_space_or_closed() introspection hooks —
// the real wake predicates, not restatements.
//
// Checked on EVERY explored schedule:
//   * exactly-once + per-producer FIFO: producer p's values appear in the
//     popped sequence exactly once, in publish order (claims are handed to
//     the one consumer in position order, so the merged sequence preserves
//     each producer's subsequence; with one producer it reads 0,1,2,...);
//   * conservation: popped + unconsumed == reserved at every step, and at
//     termination everything reserved was published, claimed and released
//     (no lost slot, no double-handout, settle-before-shutdown);
//   * no lost wakeup: a parked thread whose wake the protocol misses
//     surfaces as a deadlock (explorer reports no enabled thread).
//
// Budget knobs (PR gate defaults in brackets; the nightly CI job raises
// them): SLICK_MODEL_OPS [3] elements per SpscRing producer,
// SLICK_MODEL_MPMC_OPS [2] elements per MpmcRing producer,
// SLICK_MODEL_CAPACITY [2] min ring capacity, SLICK_MODEL_PREEMPTIONS [4]
// bound (-1 = unbounded), SLICK_MODEL_MAX_SCHEDULES [2M] runaway cap.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/virtual_scheduler.h"
#include "runtime/mpmc_ring.h"
#include "runtime/spsc_ring.h"

namespace slick::model {
namespace {

using runtime::MpmcRing;
using runtime::SpscRing;

/// Value encoding: producer p's i-th element is p * 1000 + i, so the
/// oracles can recover (producer, index) from any popped value.
constexpr int kProducerStride = 1000;

template <typename Ring>
struct RingWorld {
  RingWorld(std::size_t min_capacity, std::size_t producers)
      : ring(min_capacity), accepted_per(producers, 0) {}

  Ring ring;
  std::vector<int> popped;  ///< committed consume order (oracle input)
  std::vector<int> accepted_per;  ///< per-producer published counts
  uint64_t reserved = 0;    ///< slots claimed by producers (tail_ advance)
  uint64_t published = 0;   ///< slots whose publish has landed
  int done_producers = 0;
  bool crash_dead = false;  ///< crash scenario: consumer fail-stopped
  bool reset_done = false;  ///< crash scenario: ResetClaims has run
};

/// Producer: admits values id*1000 + 0..n-1, then optionally closes. On
/// SpscRing each element is one try_push step. On MpmcRing it claims spans
/// of up to `claim_max` slots (one step — the tail_ CAS), writes them, then
/// publishes ONE slot per step (the per-slot seq store). The wait path
/// mirrors push_n + WaitForSpace.
template <typename Ring>
class ProducerThread : public VirtualThread {
 public:
  ProducerThread(RingWorld<Ring>* w, int id, int n, std::size_t claim_max,
                 bool close_when_done)
      : w_(w), id_(id), n_(n), claim_max_(claim_max),
        close_when_done_(close_when_done) {}

  void Step() override {
    switch (state_) {
      case State::kClaim:
        if constexpr (Ring::kMultiProducer) {
          Claim();
        } else {
          TryPush();
        }
        return;
      case State::kPublish:
        // One slot per step: a split publish is legal (suffix pieces), and
        // each piece's position is recovered from its own span pointer.
        w_->ring.PublishPush(span_ + pub_off_, 1);
        Accept();
        ++pub_off_;
        if (pub_off_ == claimed_) {
          next_ += static_cast<int>(claimed_);
          if (next_ == n_) {
            Finish();
          } else {
            state_ = State::kClaim;
          }
        }
        return;
      case State::kCheckClosed:
        // push_n gives up on a closed ring (remaining elements rejected).
        if (w_->ring.closed()) {
          state_ = State::kDone;
          ++w_->done_producers;
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        // WaitForSpace: the ring's own wake predicate (space freed or
        // closed) → retry; else park on the event word (wake = word moved
        // past the snapshot).
        state_ = w_->ring.push_space_or_closed() ? State::kClaim
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kClaim;  // scheduled ⇒ the wake predicate held
        return;
      case State::kClose:
        w_->ring.close();
        state_ = State::kDone;
        ++w_->done_producers;
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
    kClaim,          // try_push (SPSC) or TryClaimPush (MPMC)
    kPublish,        // MPMC only: one slot's PublishPush
    kCheckClosed,    // push_n: `if (closed) break;`
    kSnapshotEvent,  // WaitForSpace: e = head_event
    kRecheck,        // WaitForSpace: re-check space/closed before parking
    kParked,         // head_event.wait(e) — value-based wake
    kClose,
    kDone,
  };

  void TryPush() {
    if (w_->ring.try_push(id_ * kProducerStride + next_)) {
      ++w_->reserved;
      Accept();
      ++next_;
      if (next_ == n_) Finish();
    } else {
      state_ = State::kCheckClosed;
    }
  }

  void Claim() {
    const std::size_t want =
        std::min(claim_max_, static_cast<std::size_t>(n_ - next_));
    std::size_t k = 0;
    int* span = w_->ring.TryClaimPush(want, &k);
    if (span != nullptr) {
      for (std::size_t i = 0; i < k; ++i) {
        span[i] = id_ * kProducerStride + next_ + static_cast<int>(i);
      }
      w_->reserved += k;
      span_ = span;
      claimed_ = k;
      pub_off_ = 0;
      state_ = State::kPublish;
    } else {
      state_ = State::kCheckClosed;
    }
  }

  void Accept() {
    ++w_->published;
    ++w_->accepted_per[static_cast<std::size_t>(id_)];
  }

  void Finish() {
    state_ = close_when_done_ ? State::kClose : State::kDone;
    if (state_ == State::kDone) ++w_->done_producers;
  }

  RingWorld<Ring>* w_;
  const int id_;
  const int n_;
  const std::size_t claim_max_;
  const bool close_when_done_;
  State state_ = State::kClaim;
  int next_ = 0;
  int* span_ = nullptr;
  std::size_t claimed_ = 0;
  std::size_t pub_off_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Consumer: mirrors the ShardWorker drain loop over pop_n/ClaimPop — pop
/// batches until the ring is closed *and* settled. kSnapshotEvent /
/// kRecheck / park replicate WaitForData; kFinalPop is the post-close
/// re-poll ("elements published before close() must drain"). After
/// observing closed, a failed pop with reservations still in flight
/// (unconsumed() > 0, only possible on MpmcRing) goes back to PARK on
/// tail_event, because the in-flight publisher's event bump is the only
/// wake — precisely the close-race window the MPMC scenarios exhaust.
template <typename Ring>
class ConsumerThread : public VirtualThread {
 public:
  ConsumerThread(RingWorld<Ring>* w, std::size_t batch, bool await_reset)
      : w_(w), batch_(batch) {
    if (await_reset) state_ = State::kAwaitReset;
  }

  void Step() override {
    std::vector<int> buf(batch_);
    switch (state_) {
      case State::kAwaitReset:
        state_ = State::kTryPop;  // scheduled ⇒ reset_done flipped
        return;
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
        // ClaimPop's post-close sequence: re-poll, then settle-check.
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          w_->popped.insert(w_->popped.end(), buf.begin(),
                            buf.begin() + static_cast<std::ptrdiff_t>(k));
          state_ = State::kTryPop;
        } else if (w_->ring.unconsumed() == 0) {
          state_ = State::kDone;  // closed AND settled: shutdown signal
        } else {
          // Reserved-but-unpublished slots remain: park until the
          // in-flight publish bumps tail_event.
          state_ = State::kSnapshotEvent;
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
        state_ = w_->ring.pop_ready_or_settled() ? State::kTryPop
                                                 : State::kParked;
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
    if (state_ == State::kAwaitReset) return !w_->reset_done;
    return state_ == State::kParked &&
           w_->ring.tail_event_word() == event_snapshot_;
  }

 private:
  enum class State {
    kAwaitReset,  // crash scenario's replay consumer: gated on ResetClaims
    kTryPop,
    kCheckClosed,
    kFinalPop,
    kSnapshotEvent,  // WaitForData: e = tail_event
    kRecheck,
    kParked,  // tail_event.wait(e)
    kDone,
  };
  RingWorld<Ring>* w_;
  const std::size_t batch_;
  State state_ = State::kTryPop;
  uint32_t event_snapshot_ = 0;
};

/// Claim-holding consumer: the supervised worker defers ReleasePop until a
/// checkpoint covers the claimed slots, so claims outlive batches and may
/// still be unreleased when the producer closes. This consumer drains via
/// TryClaimPop with releases batched behind a threshold — the regression
/// it hunts is a close() landing while a claimed span is held: the
/// remainder must still drain exactly once (no re-handout of the held
/// span, no stranded suffix).
template <typename Ring>
class ClaimingConsumerThread : public VirtualThread {
 public:
  ClaimingConsumerThread(RingWorld<Ring>* w, std::size_t batch,
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
          // Observing the span IS the consume for the oracle: a
          // double-handout shows up as an exactly-once failure.
          w_->popped.insert(w_->popped.end(), span, span + n);
          pending_ += n;
          state_ = State::kMaybeRelease;
        } else if (!final_pass) {
          state_ = State::kCheckClosed;
        } else if (w_->ring.unconsumed() == 0) {
          state_ = State::kFinalRelease;  // closed AND settled
        } else {
          state_ = State::kSnapshotEvent;  // in-flight publish: park
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
        state_ =
            w_->ring.closed() ? State::kFinalClaim : State::kSnapshotEvent;
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        // WaitForData under deferred releases wakes on unclaimed data
        // (tail != claim), not occupancy — held claims keep size() > 0
        // forever; the ring's own predicate says exactly that.
        state_ = w_->ring.pop_ready_or_settled() ? State::kClaim
                                                 : State::kParked;
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
  RingWorld<Ring>* w_;
  const std::size_t batch_;
  const std::size_t release_threshold_;
  State state_ = State::kClaim;
  std::size_t pending_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Crash-scenario consumer: claims one element per step, COMMITS (records
/// to the oracle) only what it releases, and fail-stops after
/// `die_after` claims — holding an unreleased claimed span, exactly the
/// state a killed supervised worker leaves behind. Its unreleased claims
/// are deliberately NOT recorded: recovery must replay them exactly once.
template <typename Ring>
class CrashingConsumerThread : public VirtualThread {
 public:
  CrashingConsumerThread(RingWorld<Ring>* w, std::size_t release_threshold,
                         std::size_t die_after)
      : w_(w), release_threshold_(release_threshold), die_after_(die_after) {}

  void Step() override {
    switch (state_) {
      case State::kClaim: {
        std::size_t n = 0;
        int* span = w_->ring.TryClaimPop(1, &n);
        if (span != nullptr) {
          pending_.push_back(*span);
          ++claimed_;
          if (claimed_ == die_after_) {
            // Fail-stop mid-hold: uncommitted claims die with the worker.
            state_ = State::kDead;
            w_->crash_dead = true;
          } else {
            state_ = State::kMaybeRelease;
          }
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      }
      case State::kMaybeRelease:
        if (pending_.size() >= release_threshold_) {
          w_->ring.ReleasePop(pending_.size());
          // Release == commit: only now do the values count as consumed.
          w_->popped.insert(w_->popped.end(), pending_.begin(),
                            pending_.end());
          pending_.clear();
        }
        state_ = State::kClaim;
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.pop_ready_or_settled() ? State::kClaim
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kClaim;
        return;
      case State::kDead:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDead; }
  bool Parked() const override {
    return state_ == State::kParked &&
           w_->ring.tail_event_word() == event_snapshot_;
  }

 private:
  enum class State {
    kClaim,
    kMaybeRelease,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDead,
  };
  RingWorld<Ring>* w_;
  const std::size_t release_threshold_;
  const std::size_t die_after_;
  State state_ = State::kClaim;
  std::size_t claimed_ = 0;
  std::vector<int> pending_;
  uint32_t event_snapshot_ = 0;
};

/// Supervisor: waits (parked) for the consumer's fail-stop, then rewinds
/// the claim cursor at quiescence — the RecoverAndRestart step, minus the
/// aggregator restore. Gating on crash_dead models "after join".
template <typename Ring>
class SupervisorThread : public VirtualThread {
 public:
  explicit SupervisorThread(RingWorld<Ring>* w) : w_(w) {}
  void Step() override {
    w_->ring.ResetClaims();
    w_->reset_done = true;
    done_ = true;
  }
  bool Done() const override { return done_; }
  bool Parked() const override { return !w_->crash_dead; }

 private:
  RingWorld<Ring>* w_;
  bool done_ = false;
};

/// One-step close(), optionally gated on every producer finishing (the
/// engine's shutdown order); ungated it races both endpoints at every
/// point.
template <typename Ring>
class CloserThread : public VirtualThread {
 public:
  CloserThread(RingWorld<Ring>* w, int await_producers)
      : w_(w), await_producers_(await_producers) {}
  void Step() override {
    w_->ring.close();
    done_ = true;
  }
  bool Done() const override { return done_; }
  bool Parked() const override {
    return w_->done_producers < await_producers_;
  }

 private:
  RingWorld<Ring>* w_;
  const int await_producers_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Oracles and config
// ---------------------------------------------------------------------------

template <typename Ring>
struct OwnedWorld {
  std::unique_ptr<RingWorld<Ring>> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;

  OwnedWorld(std::size_t capacity, std::size_t producers)
      : state(std::make_unique<RingWorld<Ring>>(capacity, producers)) {}

  template <template <typename> class Thread, typename... Args>
  void Spawn(Args... args) {
    threads.push_back(std::make_unique<Thread<Ring>>(state.get(), args...));
  }
};

/// Exactly-once + per-producer order: decode (producer, index) from each
/// popped value and require every producer's subsequence to read 0,1,2,...
/// A duplicate, a skip, a reorder or a phantom value all fail here.
template <typename Ring>
std::string CheckPerProducerOrder(const RingWorld<Ring>& s) {
  std::vector<int> next(s.accepted_per.size(), 0);
  for (const int v : s.popped) {
    const int p = v / kProducerStride;
    const int i = v % kProducerStride;
    if (p < 0 || static_cast<std::size_t>(p) >= next.size()) {
      return "phantom value " + std::to_string(v);
    }
    if (i != next[static_cast<std::size_t>(p)]) {
      return "producer " + std::to_string(p) + " subsequence broken: got " +
             std::to_string(i) + ", expected " +
             std::to_string(next[static_cast<std::size_t>(p)]);
    }
    ++next[static_cast<std::size_t>(p)];
  }
  return "";
}

/// `conservation`: popped + unconsumed == reserved must hold after every
/// step (true whenever the oracle records at claim time — the crash
/// scenario records at release time and skips it). Held claims are both
/// "popped" (observed) and still occupying ring slots, so conservation is
/// stated against the claim cursor. Final checks are shared: everything
/// reserved was published, consumed exactly once, and released.
template <typename Ring>
void WireOracles(OwnedWorld<Ring>* ow, bool conservation) {
  RingWorld<Ring>* s = ow->state.get();
  ow->world.check_step = [s, conservation](const auto& fail) {
    if (s->popped.size() > s->published) {
      fail("consumed a slot nobody published: popped=" +
           std::to_string(s->popped.size()) + " published=" +
           std::to_string(s->published));
      return;
    }
    const std::string order = CheckPerProducerOrder(*s);
    if (!order.empty()) {
      fail("exactly-once/order violation: " + order);
      return;
    }
    if (conservation &&
        s->popped.size() + s->ring.unconsumed() != s->reserved) {
      fail("conservation violated mid-run: reserved=" +
           std::to_string(s->reserved) + " popped=" +
           std::to_string(s->popped.size()) + " unconsumed=" +
           std::to_string(s->ring.unconsumed()));
    }
  };
  ow->world.check_final = [s](const auto& fail) {
    uint64_t accepted = 0;
    for (const int a : s->accepted_per) {
      accepted += static_cast<uint64_t>(a);
    }
    if (s->published != s->reserved) {
      fail("reserved slot never published: reserved=" +
           std::to_string(s->reserved) + " published=" +
           std::to_string(s->published));
      return;
    }
    if (s->popped.size() != s->published || accepted != s->published) {
      fail("lost or duplicated slots at termination: published=" +
           std::to_string(s->published) + " popped=" +
           std::to_string(s->popped.size()));
      return;
    }
    if (s->ring.unconsumed() != 0 || s->ring.unreleased() != 0 ||
        !s->ring.empty()) {
      fail("ring not settled at termination: unconsumed=" +
           std::to_string(s->ring.unconsumed()) + " unreleased=" +
           std::to_string(s->ring.unreleased()));
      return;
    }
    const std::string order = CheckPerProducerOrder(*s);
    if (!order.empty()) fail("final order violation: " + order);
  };
  for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
}

struct ModelConfig {
  int ops;
  std::size_t capacity;
  std::size_t batch;
  ExploreOptions explore;
};

template <typename Ring>
ModelConfig ConfigFromEnv() {
  ModelConfig cfg;
  // Two scheduler steps per element (claim, publish) and two producers
  // double the depth per op vs. the SPSC model — hence the smaller
  // MPMC default.
  cfg.ops = Ring::kMultiProducer
                ? static_cast<int>(EnvKnob("SLICK_MODEL_MPMC_OPS", 2))
                : static_cast<int>(EnvKnob("SLICK_MODEL_OPS", 3));
  cfg.capacity =
      static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2));
  cfg.batch = 2;
  cfg.explore.preemption_bound =
      static_cast<int>(EnvKnob("SLICK_MODEL_PREEMPTIONS", 4));
  cfg.explore.max_schedules = static_cast<uint64_t>(
      EnvKnob("SLICK_MODEL_MAX_SCHEDULES", 2'000'000));
  return cfg;
}

/// Explores the worlds `build` populates over a fresh ring of `capacity`
/// slots shared by `producers` producers, then reports under `what`.
template <typename Ring, typename Build>
void ExploreAndReport(const ModelConfig& cfg, std::size_t capacity,
                      std::size_t producers, bool conservation,
                      const std::string& what, const Build& build) {
  ScheduleExplorer explorer(cfg.explore);
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWorld<Ring>>(capacity, producers);
    build(*ow);
    WireOracles(ow.get(), conservation);
    return ow;
  });
  ReportAndExpectExhausted(r, what.c_str());
}

// ---------------------------------------------------------------------------
// SpscRing scenarios: one producer (id 0, values 0,1,2,...).
// ---------------------------------------------------------------------------

using SpscWorld = OwnedWorld<SpscRing<int>>;

/// Producer blocking-pushes N then closes; consumer drains via the full
/// pop_n protocol. The steady-state shape of the sharded runtime.
TEST(SpscRingModel, ProducerConsumerClose) {
  const auto cfg = ConfigFromEnv<SpscRing<int>>();
  ExploreAndReport<SpscRing<int>>(
      cfg, cfg.capacity, 1, true, "ProducerConsumerClose",
      [&](SpscWorld& ow) {
        ow.Spawn<ProducerThread>(0, cfg.ops, std::size_t{1},
                                 /*close_when_done=*/true);
        ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
      });
}

/// A third thread calls close() at every possible point while the
/// producer is still pushing — the shutdown race. Elements accepted
/// before the close lands must still drain; pushes after it must be
/// rejected, never stranded.
TEST(SpscRingModel, ConcurrentCloseRace) {
  const auto cfg = ConfigFromEnv<SpscRing<int>>();
  ExploreAndReport<SpscRing<int>>(
      cfg, cfg.capacity, 1, true, "ConcurrentCloseRace", [&](SpscWorld& ow) {
        ow.Spawn<ProducerThread>(0, cfg.ops, std::size_t{1},
                                 /*close_when_done=*/false);
        ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
        ow.Spawn<CloserThread>(/*await_producers=*/0);
      });
}

/// Capacity sweep up to the acceptance bound (≤ 4): the wrap-around and
/// full/empty boundary cases shift with capacity, so each is its own
/// exhaustive search.
TEST(SpscRingModel, CapacitySweep) {
  const auto cfg = ConfigFromEnv<SpscRing<int>>();
  for (std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
    ExploreAndReport<SpscRing<int>>(
        cfg, cap, 1, true, "CapacitySweep/cap" + std::to_string(cap),
        [&](SpscWorld& ow) {
          ow.Spawn<ProducerThread>(0, cfg.ops, std::size_t{1},
                                   /*close_when_done=*/true);
          ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
        });
  }
}

/// Producer pushes N then closes while the consumer may be holding an
/// unreleased claimed span (threshold 3 with batch 2 guarantees held spans
/// at most steps). Every interleaving must drain exactly once. Capacity 4:
/// roomy enough that close can land mid-hold, small enough to keep the
/// space exhaustive.
TEST(SpscRingModel, CloseWithHeldClaimDrainsOnce) {
  const auto cfg = ConfigFromEnv<SpscRing<int>>();
  ExploreAndReport<SpscRing<int>>(
      cfg, 4, 1, true, "CloseWithHeldClaimDrainsOnce", [&](SpscWorld& ow) {
        ow.Spawn<ProducerThread>(0, cfg.ops, std::size_t{1},
                                 /*close_when_done=*/true);
        ow.Spawn<ClaimingConsumerThread>(std::size_t{2},
                                         /*release_threshold=*/std::size_t{3});
      });
}

// ---------------------------------------------------------------------------
// MpmcRing scenarios: two producers (ids 0 and 1).
// ---------------------------------------------------------------------------

using MpmcWorld = OwnedWorld<MpmcRing<int>>;

/// Two producers claiming up to `claim_max0` (producer 0) and one
/// (producer 1) slot per claim, never closing.
void SpawnTwoProducers(MpmcWorld& ow, int ops, std::size_t claim_max0 = 1) {
  ow.Spawn<ProducerThread>(0, ops, claim_max0, /*close_when_done=*/false);
  ow.Spawn<ProducerThread>(1, ops, std::size_t{1}, /*close_when_done=*/false);
}

/// Steady state → shutdown: two producers racing claims and publishes into
/// one ring, the consumer draining concurrently, close() after both finish
/// (the engine's quiesce-then-stop order). Swept over capacities so the
/// wrap boundary (capacity 2 wraps every other claim) is exhausted too.
TEST(MpmcRingModel, TwoProducersDrainToClose) {
  const auto cfg = ConfigFromEnv<MpmcRing<int>>();
  for (std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
    ExploreAndReport<MpmcRing<int>>(
        cfg, cap, 2, true,
        "TwoProducersDrainToClose/cap" + std::to_string(cap),
        [&](MpmcWorld& ow) {
          SpawnTwoProducers(ow, cfg.ops);
          ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
          ow.Spawn<CloserThread>(/*await_producers=*/2);
        });
  }
}

/// Multi-slot claims published piecewise: producer 0 claims spans of up to
/// two slots and publishes them one per step, so a claim's tail is still
/// unpublished while its head is live — the published-prefix walk in
/// TryClaimPop must stop at the gap, and the gap's eventual publish must
/// wake a parked consumer.
TEST(MpmcRingModel, PiecewisePublishKeepsPrefixContiguous) {
  const auto cfg = ConfigFromEnv<MpmcRing<int>>();
  ExploreAndReport<MpmcRing<int>>(
      cfg, 4, 2, true, "PiecewisePublishKeepsPrefixContiguous",
      [&](MpmcWorld& ow) {
        SpawnTwoProducers(ow, cfg.ops, /*claim_max0=*/2);
        ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
        ow.Spawn<CloserThread>(/*await_producers=*/2);
      });
}

/// An UNGATED closer races both producers at every point — including
/// inside a claim/publish window. A producer cut off mid-stream must have
/// its already-reserved slots drain (reservations settle, ClaimPop waits
/// for the in-flight publish rather than stranding it) and its
/// never-claimed elements rejected, with nothing lost or duplicated.
TEST(MpmcRingModel, CloseRaceTwoProducers) {
  ModelConfig cfg = ConfigFromEnv<MpmcRing<int>>();
  // An ungated closer is runnable at every decision point, which multiplies
  // the schedule count by the depth; the race windows it exists to exhaust
  // (close before a claim, inside a claim/publish window, after a publish)
  // are all per-element, so one element fewer per producer keeps every
  // window while staying under the schedule cap at the PR-gate defaults.
  cfg.ops = std::max(1, cfg.ops - 1);
  ExploreAndReport<MpmcRing<int>>(
      cfg, cfg.capacity, 2, true, "CloseRaceTwoProducers",
      [&](MpmcWorld& ow) {
        SpawnTwoProducers(ow, cfg.ops);
        ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/false);
        ow.Spawn<CloserThread>(/*await_producers=*/0);
      });
}

/// Supervised-worker drain shape under concurrent producers: claims with
/// deferred batched releases, close landing while a claimed span is held.
/// The held span must never be re-handed out, and the remainder must drain
/// exactly once (the claim-cursor regression, on the MPMC ring).
TEST(MpmcRingModel, HeldClaimCloseDrainsOnce) {
  const auto cfg = ConfigFromEnv<MpmcRing<int>>();
  ExploreAndReport<MpmcRing<int>>(
      cfg, 4, 2, true, "HeldClaimCloseDrainsOnce", [&](MpmcWorld& ow) {
        SpawnTwoProducers(ow, cfg.ops);
        ow.Spawn<ClaimingConsumerThread>(std::size_t{2},
                                         /*release_threshold=*/std::size_t{3});
        ow.Spawn<CloserThread>(/*await_producers=*/2);
      });
}

/// Crash → ResetClaims → replay, under concurrent producers: the consumer
/// fail-stops holding an unreleased claimed span; the supervisor rewinds
/// the claim cursor at quiescence; a replay consumer re-drains. Everything
/// the dead consumer released stays consumed exactly once, everything it
/// held is replayed exactly once — bit-identical recovery's ring half.
/// Works precisely because releases never reset seq words (the replayed
/// span is still marked published). Release-time recording: mid-run
/// conservation does not apply.
TEST(MpmcRingModel, CrashResetClaimsReplaysExactlyOnce) {
  const auto cfg = ConfigFromEnv<MpmcRing<int>>();
  ExploreAndReport<MpmcRing<int>>(
      cfg, 4, 2, /*conservation=*/false, "CrashResetClaimsReplaysExactlyOnce",
      [&](MpmcWorld& ow) {
        SpawnTwoProducers(ow, cfg.ops);
        // Commits (releases) two, then dies holding the third claim.
        ow.Spawn<CrashingConsumerThread>(/*release_threshold=*/std::size_t{2},
                                         /*die_after=*/std::size_t{3});
        ow.Spawn<SupervisorThread>();
        ow.Spawn<ConsumerThread>(cfg.batch, /*await_reset=*/true);
        ow.Spawn<CloserThread>(/*await_producers=*/2);
      });
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
