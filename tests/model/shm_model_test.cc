// Deterministic model-checking of the ShmRing lease protocol (DESIGN.md
// §17): exhaustive bounded-preemption exploration of the
// claim → heartbeat-expiry → fence → tombstone → late-publish schedule
// against exactly-once oracles. The lease producer's claim (intent +
// tail CAS) and publish (the epoch-gated per-slot CAS walk) are SEPARATE
// scheduler-visible steps, and a reaper pass — running with a forged
// clock that makes every heartbeat stale — can land in any window
// between them. Checked on EVERY explored schedule:
//
//   * zombie must lose: a publish that follows a fence of its own lease
//     lands ZERO slots (the epoch gate and the reaper's tombstone
//     sequencing both force it), and an unfenced publish lands its whole
//     claim — nothing in between;
//   * tombstone conservation: at termination every reserved slot was
//     either consumed exactly once or tombstoned by the reaper —
//     popped + slots_tombstoned == reserved;
//   * no wedge / no lost wakeup: an abandoned claimed-but-unpublished
//     span parks the consumer; the reaper's repair must wake it (a
//     missed tail-event bump surfaces as a deadlock: no enabled thread
//     with work remaining);
//   * live traffic is untouched: a lease-less producer's values all
//     drain, in order, regardless of where the reap lands.
//
// Suite names contain "Model" and "Lease" so the TSan CI leg's -R filter
// picks them up. Budget knobs mirror the MPMC model: SLICK_MODEL_SHM_OPS
// [2], SLICK_MODEL_PREEMPTIONS [4], SLICK_MODEL_MAX_SCHEDULES [2M].

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/virtual_scheduler.h"
#include "runtime/shm/shm_ring.h"
#include "util/clock.h"

namespace slick::model {
namespace {

using runtime::ShmReapStats;
using runtime::ShmRing;

/// Value encoding: producer p's i-th element is p * 1000 + i.
constexpr int kStride = 1000;

/// Forged reap clock: far enough ahead that every real heartbeat is
/// stale at lease_ns = 1 — the reaper fences whatever it scans.
uint64_t FarFuture() { return util::MonotonicNanos() + (uint64_t{1} << 50); }

struct ShmWorld {
  explicit ShmWorld(std::size_t min_capacity)
      : ring(min_capacity, /*max_producers=*/2), accepted_per(2, 0) {}

  ShmRing<int> ring;
  std::vector<int> popped;        ///< committed consume order
  std::vector<int> accepted_per;  ///< per-producer landed counts
  uint64_t reserved = 0;          ///< slots claimed (lease or lease-less)
  uint64_t published = 0;         ///< slots that actually landed
  uint64_t fences = 0;            ///< reaper fences applied so far
  int reap_passes = 0;
  int done_producers = 0;
  std::string violation;  ///< set by threads; surfaced via check_step
};

/// The lease-holding producer under test: claims spans through its
/// LeaseProducer (one step — the intent stores + tail CAS), then
/// publishes the whole claim in one step (the epoch-gated CAS walk).
/// The step boundary between them is exactly where the reaper's fence
/// can land. Asserts the strict zombie-must-lose property in-schedule:
/// fenced between claim and publish ⇒ zero slots land; unfenced ⇒ the
/// whole claim lands. In `abandon` mode the first successful claim is
/// held forever — the die-before-publish shape whose repair must unwedge
/// a parked consumer.
class LeaseProducerThread : public VirtualThread {
 public:
  LeaseProducerThread(ShmWorld* w, int id, int n, std::size_t span_max,
                      bool abandon)
      : w_(w), id_(id), n_(n), span_max_(span_max), abandon_(abandon),
        producer_(w->ring.AttachProducer()) {}

  void Step() override {
    using Result = typename ShmRing<int>::LeaseProducer::Result;
    switch (state_) {
      case State::kClaim: {
        const std::size_t want = std::min(
            span_max_, static_cast<std::size_t>(n_ - next_));
        std::size_t k = 0;
        const Result r = producer_.TryBeginClaim(want, &k);
        if (r == Result::kOk) {
          for (std::size_t i = 0; i < k; ++i) {
            producer_.claim_data()[i] =
                id_ * kStride + next_ + static_cast<int>(i);
          }
          w_->reserved += k;
          claimed_ = k;
          fences_at_claim_ = w_->fences;
          if (abandon_) {
            state_ = State::kDone;  // die holding the unpublished span
            ++w_->done_producers;
          } else {
            state_ = State::kPublish;
          }
        } else if (r == Result::kFull) {
          state_ = State::kSnapshotEvent;
        } else {
          // kFenced (the reaper got us) or kClosed: stop producing.
          state_ = State::kDone;
          ++w_->done_producers;
        }
        return;
      }
      case State::kPublish: {
        const bool fenced_between = w_->fences > fences_at_claim_;
        const std::size_t landed = producer_.PublishClaimed();
        if (fenced_between && landed != 0) {
          w_->violation = "zombie won: fenced lease published " +
                          std::to_string(landed) + " slots";
        } else if (!fenced_between && landed != claimed_) {
          w_->violation = "unfenced publish landed " +
                          std::to_string(landed) + " of " +
                          std::to_string(claimed_);
        }
        for (std::size_t i = 0; i < landed; ++i) {
          ++w_->accepted_per[static_cast<std::size_t>(id_)];
        }
        w_->published += landed;
        if (landed < claimed_) {
          state_ = State::kDone;  // fenced: a zombie stops for good
          ++w_->done_producers;
        } else {
          next_ += static_cast<int>(claimed_);
          if (next_ == n_) {
            state_ = State::kDone;
            ++w_->done_producers;
          } else {
            state_ = State::kClaim;
          }
        }
        return;
      }
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.push_space_or_closed() ? State::kClaim
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kClaim;
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
    kClaim,
    kPublish,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDone,
  };
  ShmWorld* w_;
  const int id_;
  const int n_;
  const std::size_t span_max_;
  const bool abandon_;
  typename ShmRing<int>::LeaseProducer producer_;
  State state_ = State::kClaim;
  int next_ = 0;
  std::size_t claimed_ = 0;
  uint64_t fences_at_claim_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// A lease-less in-process producer (the engine router's path): its
/// traffic must be completely unaffected by reaps of the lease table.
class PlainProducerThread : public VirtualThread {
 public:
  PlainProducerThread(ShmWorld* w, int id, int n) : w_(w), id_(id), n_(n) {}

  void Step() override {
    switch (state_) {
      case State::kClaim: {
        std::size_t k = 0;
        int* span = w_->ring.TryClaimPush(1, &k);
        if (span != nullptr) {
          span[0] = id_ * kStride + next_;
          w_->reserved += 1;
          span_ = span;
          state_ = State::kPublish;
        } else if (w_->ring.closed()) {
          state_ = State::kDone;
          ++w_->done_producers;
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      }
      case State::kPublish:
        w_->ring.PublishPush(span_, 1);
        ++w_->published;
        ++w_->accepted_per[static_cast<std::size_t>(id_)];
        ++next_;
        if (next_ == n_) {
          state_ = State::kDone;
          ++w_->done_producers;
        } else {
          state_ = State::kClaim;
        }
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.push_space_or_closed() ? State::kClaim
                                                 : State::kParked;
        return;
      case State::kParked:
        state_ = State::kClaim;
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
    kClaim,
    kPublish,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDone,
  };
  ShmWorld* w_;
  const int id_;
  const int n_;
  State state_ = State::kClaim;
  int next_ = 0;
  int* span_ = nullptr;
  uint32_t event_snapshot_ = 0;
};

/// The reaper: each step is one full ReapExpiredLeases pass under the
/// forged clock (every heartbeat stale, every pid alive — so every fence
/// it applies is a zombie fence). Two passes: the second proves reaps
/// are idempotent on an already-reclaimed table.
class ReaperThread : public VirtualThread {
 public:
  ReaperThread(ShmWorld* w, int passes) : w_(w), passes_(passes) {}

  void Step() override {
    const ShmReapStats st = w_->ring.ReapExpiredLeases(FarFuture(), 1);
    w_->fences += st.zombie_fences;
    ++w_->reap_passes;
  }
  bool Done() const override { return w_->reap_passes >= passes_; }
  bool Parked() const override { return false; }

 private:
  ShmWorld* w_;
  const int passes_;
};

/// Consumer mirroring the ShardWorker drain loop (as the MPMC model):
/// try_pop_n steps, value-based parking on the tail event word, and the
/// post-close settle check. Tombstone skips happen inside try_pop_n.
class ConsumerThread : public VirtualThread {
 public:
  ConsumerThread(ShmWorld* w, std::size_t batch) : w_(w), batch_(batch) {}

  void Step() override {
    std::vector<int> buf(batch_);
    switch (state_) {
      case State::kTryPop: {
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          w_->popped.insert(w_->popped.end(), buf.begin(),
                            buf.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          state_ = State::kCheckClosed;
        }
        return;
      }
      case State::kCheckClosed:
        state_ = w_->ring.closed() ? State::kFinalPop : State::kSnapshotEvent;
        return;
      case State::kFinalPop: {
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          w_->popped.insert(w_->popped.end(), buf.begin(),
                            buf.begin() + static_cast<std::ptrdiff_t>(k));
          state_ = State::kTryPop;
        } else if (w_->ring.unconsumed() == 0) {
          state_ = State::kDone;  // closed AND settled
        } else {
          // Reserved-but-unresolved slots remain: only a publish or a
          // reaper repair can settle them — park on the tail event.
          state_ = State::kSnapshotEvent;
        }
        return;
      }
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.tail_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
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
    return state_ == State::kParked &&
           w_->ring.tail_event_word() == event_snapshot_;
  }

 private:
  enum class State {
    kTryPop,
    kCheckClosed,
    kFinalPop,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDone,
  };
  ShmWorld* w_;
  const std::size_t batch_;
  State state_ = State::kTryPop;
  uint32_t event_snapshot_ = 0;
};

/// Closes once every producer retired AND the reaper finished — the
/// engine's quiesce-then-stop order, which is also what guarantees every
/// reserved slot is published-or-tombstoned before the settle check.
class CloserThread : public VirtualThread {
 public:
  CloserThread(ShmWorld* w, int await_producers, int await_passes)
      : w_(w), await_producers_(await_producers), await_passes_(await_passes) {}
  void Step() override {
    w_->ring.close();
    done_ = true;
  }
  bool Done() const override { return done_; }
  bool Parked() const override {
    return w_->done_producers < await_producers_ ||
           w_->reap_passes < await_passes_;
  }

 private:
  ShmWorld* w_;
  const int await_producers_;
  const int await_passes_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

struct OwnedWorld {
  std::unique_ptr<ShmWorld> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

/// Exactly-once + per-producer order over LANDED values: each producer's
/// popped subsequence must read 0,1,2,... — a tombstoned (never-landed)
/// value surfacing, a duplicate, or a reorder all fail here.
std::string CheckOrder(const ShmWorld& s) {
  std::vector<int> next(s.accepted_per.size(), 0);
  for (const int v : s.popped) {
    const int p = v / kStride;
    const int i = v % kStride;
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

void WireOracles(OwnedWorld* ow) {
  ShmWorld* s = ow->state.get();
  ow->world.check_step = [s](const auto& fail) {
    if (!s->violation.empty()) {
      fail(s->violation);
      return;
    }
    if (s->popped.size() > s->published) {
      fail("consumed a slot nobody published: popped=" +
           std::to_string(s->popped.size()) +
           " published=" + std::to_string(s->published));
      return;
    }
    const std::string order = CheckOrder(*s);
    if (!order.empty()) fail("exactly-once/order violation: " + order);
  };
  ow->world.check_final = [s](const auto& fail) {
    const runtime::ShmLeaseStats stats = s->ring.lease_stats();
    if (s->popped.size() != s->published) {
      fail("lost or duplicated slots: published=" +
           std::to_string(s->published) +
           " popped=" + std::to_string(s->popped.size()));
      return;
    }
    // Tombstone conservation: every reserved slot was consumed exactly
    // once or repaired by the reaper.
    if (s->popped.size() + stats.slots_tombstoned != s->reserved) {
      fail("reserved slot unaccounted: reserved=" +
           std::to_string(s->reserved) +
           " popped=" + std::to_string(s->popped.size()) +
           " tombstoned=" + std::to_string(stats.slots_tombstoned));
      return;
    }
    // The one lease was fenced-while-live and reclaimed exactly once.
    if (stats.leases_reclaimed != 1 || stats.zombie_fences != 1) {
      fail("lease accounting: reclaimed=" +
           std::to_string(stats.leases_reclaimed) +
           " zombie_fences=" + std::to_string(stats.zombie_fences));
      return;
    }
    if (s->ring.unconsumed() != 0 || s->ring.unreleased() != 0 ||
        !s->ring.empty()) {
      fail("ring not settled at termination");
      return;
    }
    const std::string order = CheckOrder(*s);
    if (!order.empty()) fail("final order violation: " + order);
  };
  for (auto& t : ow->threads) ow->world.threads.push_back(t.get());
}

ExploreOptions OptionsFromEnv() {
  ExploreOptions opts;
  opts.preemption_bound =
      static_cast<int>(EnvKnob("SLICK_MODEL_PREEMPTIONS", 4));
  opts.max_schedules =
      static_cast<uint64_t>(EnvKnob("SLICK_MODEL_MAX_SCHEDULES", 2'000'000));
  return opts;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// The zombie-resume race, exhausted: a lease producer streams spans
/// while a stale-clock reaper pass can land in every window — before the
/// first claim (claim returns kFenced), between a claim and its publish
/// (the publish must land ZERO), or after a publish (the next claim is
/// fenced). Swept over span widths so both single-slot and multi-slot
/// repairs are covered.
TEST(ShmLeaseModel, ZombiePublishAlwaysLosesToFence) {
  const int ops = static_cast<int>(EnvKnob("SLICK_MODEL_SHM_OPS", 2));
  for (std::size_t span_max : {std::size_t{1}, std::size_t{2}}) {
    ScheduleExplorer explorer(OptionsFromEnv());
    const ExploreResult r = explorer.Explore([&] {
      auto ow = std::make_unique<OwnedWorld>();
      ow->state = std::make_unique<ShmWorld>(/*min_capacity=*/4);
      ow->threads.push_back(std::make_unique<LeaseProducerThread>(
          ow->state.get(), /*id=*/0, ops, span_max, /*abandon=*/false));
      ow->threads.push_back(
          std::make_unique<ReaperThread>(ow->state.get(), /*passes=*/2));
      ow->threads.push_back(
          std::make_unique<ConsumerThread>(ow->state.get(), /*batch=*/2));
      ow->threads.push_back(std::make_unique<CloserThread>(
          ow->state.get(), /*await_producers=*/1, /*await_passes=*/2));
      WireOracles(ow.get());
      return ow;
    });
    ReportAndExpectExhausted(
        r, ("ZombiePublishAlwaysLosesToFence/span" + std::to_string(span_max))
               .c_str());
  }
}

/// Die-before-publish, with live traffic: one lease producer claims a
/// two-slot span and holds it forever (the abandoned reservation that
/// would wedge a plain MPMC ring), while a lease-less producer streams
/// around it. The consumer must end up parked on the hole in some
/// schedules, and the reaper's tombstone repair must wake it — a lost
/// wakeup or a stranded reservation surfaces as a deadlock; a tombstone
/// leaking into the popped stream fails the order oracle.
TEST(ShmLeaseModel, AbandonedClaimRepairUnwedgesConsumer) {
  const int ops = static_cast<int>(EnvKnob("SLICK_MODEL_SHM_OPS", 2));
  ScheduleExplorer explorer(OptionsFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWorld>();
    ow->state = std::make_unique<ShmWorld>(/*min_capacity=*/4);
    ow->threads.push_back(std::make_unique<LeaseProducerThread>(
        ow->state.get(), /*id=*/0, /*n=*/2, /*span_max=*/2,
        /*abandon=*/true));
    ow->threads.push_back(std::make_unique<PlainProducerThread>(
        ow->state.get(), /*id=*/1, ops));
    ow->threads.push_back(
        std::make_unique<ReaperThread>(ow->state.get(), /*passes=*/2));
    ow->threads.push_back(
        std::make_unique<ConsumerThread>(ow->state.get(), /*batch=*/2));
    ow->threads.push_back(std::make_unique<CloserThread>(
        ow->state.get(), /*await_producers=*/2, /*await_passes=*/2));
    WireOracles(ow.get());
    return ow;
  });
  ReportAndExpectExhausted(r, "AbandonedClaimRepairUnwedgesConsumer");
}

}  // namespace
}  // namespace slick::model
