// Deterministic model-checking of the event-time watermark advance
// protocol (tests/model/, DESIGN.md §9 and §13).
//
// Three virtual threads over one real SpscRing<Timed> + OooTree:
//   * router    — blocking-pushes N timed tuples (possibly out of order
//                 in event time), then closes the ring;
//   * worker    — ShardWorker's event-mode drain verbatim at step
//                 granularity: pop a batch, Insert each tuple into the
//                 tree, raise the watermark gauge to the batch max, THEN
//                 publish the cumulative processed count. The gauge set
//                 strictly precedes the processed release-store — the
//                 ordering EventQuery relies on;
//   * sampler   — ParallelShardedEngine::EventQuery's quiescent read:
//                 parked until processed == N, then samples the gauge,
//                 BulkEvicts below the window low edge and answers the
//                 windowed range aggregate.
//
// Checked on EVERY explored schedule: the gauge is monotone and never
// runs ahead of the inserts it covers (a sampler that acquires processed
// may trust it); the sampled watermark equals the true max event time at
// quiescence; the windowed answer and eviction count match the
// sequential oracle. An edit that publishes `processed` before setting
// the gauge — or lets the gauge advance past undrained tuples — fails
// here with the exact interleaving printed.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/virtual_scheduler.h"
#include "ops/arith.h"
#include "runtime/spsc_ring.h"
#include "window/ooo_tree.h"

namespace slick::model {
namespace {

using runtime::SpscRing;
using Event = window::Timed<int64_t>;

struct WatermarkWorld {
  explicit WatermarkWorld(std::size_t min_capacity) : ring(min_capacity) {}

  SpscRing<Event> ring;
  window::OooTree<ops::SumInt> tree;
  int64_t routed = 0;          ///< tuples accepted by push (router-side)
  int64_t processed = 0;       ///< models ShardWorker::processed_
  uint64_t gauge = 0;          ///< models ShardCounters::watermark
  uint64_t max_inserted = 0;   ///< ground truth: max ts Insert()ed so far
  int64_t inserts = 0;         ///< ground truth: Insert() invocations
  bool sampled = false;
  uint64_t sampled_wm = 0;
  int64_t sampled_processed = 0;
  std::size_t evicted = 0;
  int64_t answer = 0;
};

/// Router: blocking-push the fixed event list with the full WaitForSpace
/// snapshot/recheck/park protocol, then close() — ParallelEngine's
/// shutdown order (route everything, then Stop()).
class TimedRouterThread : public VirtualThread {
 public:
  TimedRouterThread(WatermarkWorld* w, std::vector<Event> events)
      : w_(w), events_(std::move(events)) {}

  void Step() override {
    switch (state_) {
      case State::kTryPush:
        if (w_->ring.try_push(events_[next_])) {
          ++w_->routed;
          if (++next_ == events_.size()) state_ = State::kClose;
        } else {
          state_ = State::kSnapshotEvent;
        }
        return;
      case State::kSnapshotEvent:
        event_snapshot_ = w_->ring.head_event_word();
        state_ = State::kRecheck;
        return;
      case State::kRecheck:
        state_ = w_->ring.size() < w_->ring.capacity() ? State::kTryPush
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
  WatermarkWorld* w_;
  const std::vector<Event> events_;
  State state_ = State::kTryPush;
  std::size_t next_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Worker: the event-mode drain loop at step granularity. Per batch the
/// steps are Insert (one per element), SetGauge, Publish — in that order,
/// mirroring ShardWorker: the watermark gauge write happens-before the
/// processed release-store, so a reader that acquires `processed` also
/// sees a gauge covering every drained tuple.
class EventWorkerThread : public VirtualThread {
 public:
  EventWorkerThread(WatermarkWorld* w, std::size_t batch)
      : w_(w), batch_(batch) {}

  void Step() override {
    switch (state_) {
      case State::kTryPop: {
        std::vector<Event> buf(batch_);
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          pending_.assign(buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
          done_in_batch_ = 0;
          state_ = State::kInsert;
        } else {
          state_ = State::kCheckClosed;
        }
        return;
      }
      case State::kInsert: {
        const Event& e = pending_[done_in_batch_];
        w_->tree.Insert(e.t, e.v);
        ++w_->inserts;
        w_->max_inserted = std::max(w_->max_inserted, e.t);
        if (++done_in_batch_ == pending_.size()) state_ = State::kSetGauge;
        return;
      }
      case State::kSetGauge: {
        uint64_t wm = w_->gauge;
        for (const Event& e : pending_) wm = std::max(wm, e.t);
        w_->gauge = wm;
        state_ = State::kPublish;
        return;
      }
      case State::kPublish:
        w_->processed += static_cast<int64_t>(pending_.size());
        state_ = State::kTryPop;
        return;
      case State::kCheckClosed:
        state_ =
            w_->ring.closed() ? State::kFinalPop : State::kSnapshotEvent;
        return;
      case State::kFinalPop: {
        std::vector<Event> buf(batch_);
        const std::size_t k = w_->ring.try_pop_n(buf.data(), batch_);
        if (k > 0) {
          pending_.assign(buf.begin(),
                          buf.begin() + static_cast<std::ptrdiff_t>(k));
          done_in_batch_ = 0;
          state_ = State::kInsert;
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
        state_ = (!w_->ring.empty() || w_->ring.closed()) ? State::kTryPop
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
    kInsert,
    kSetGauge,
    kPublish,
    kCheckClosed,
    kFinalPop,
    kSnapshotEvent,
    kRecheck,
    kParked,
    kDone,
  };
  WatermarkWorld* w_;
  const std::size_t batch_;
  State state_ = State::kTryPop;
  std::vector<Event> pending_;
  std::size_t done_in_batch_ = 0;
  uint32_t event_snapshot_ = 0;
};

/// Sampler: EventQuery's read half. Parked until the worker published
/// processed == N (the AwaitEpoch acquire), then in separate steps:
/// sample the gauge, BulkEvict below the window low edge, and answer the
/// windowed range aggregate — each a distinct interleaving point.
class WatermarkSamplerThread : public VirtualThread {
 public:
  WatermarkSamplerThread(WatermarkWorld* w, int64_t n, uint64_t range)
      : w_(w), n_(n), range_(range) {}

  void Step() override {
    switch (state_) {
      case State::kSampleGauge:
        w_->sampled = true;
        w_->sampled_processed = w_->processed;
        w_->sampled_wm = w_->gauge;
        state_ = State::kEvict;
        return;
      case State::kEvict:
        w_->evicted = w_->tree.BulkEvict(Low());
        state_ = State::kAnswer;
        return;
      case State::kAnswer: {
        int64_t acc = ops::SumInt::identity();
        if (w_->tree.RangeAggregate(Low(), w_->sampled_wm, &acc)) {
          w_->answer = acc;
        }
        state_ = State::kDone;
        return;
      }
      case State::kDone:
        return;
    }
  }
  bool Done() const override { return state_ == State::kDone; }
  bool Parked() const override {
    return state_ == State::kSampleGauge && w_->processed != n_;
  }

 private:
  enum class State { kSampleGauge, kEvict, kAnswer, kDone };
  uint64_t Low() const {
    return w_->sampled_wm >= range_ ? w_->sampled_wm - range_ + 1 : 0;
  }
  WatermarkWorld* w_;
  const int64_t n_;
  const uint64_t range_;
  State state_ = State::kSampleGauge;
};

struct OwnedWatermarkWorld {
  std::unique_ptr<WatermarkWorld> state;
  std::vector<std::unique_ptr<VirtualThread>> threads;
  World world;
};

struct Oracle {
  uint64_t max_ts = 0;
  uint64_t low = 0;
  int64_t windowed_sum = 0;
  std::size_t below_low = 0;
};

Oracle OracleFor(const std::vector<Event>& events, uint64_t range) {
  Oracle o;
  for (const Event& e : events) o.max_ts = std::max(o.max_ts, e.t);
  o.low = o.max_ts >= range ? o.max_ts - range + 1 : 0;
  for (const Event& e : events) {
    if (e.t < o.low) {
      ++o.below_low;
    } else if (e.t <= o.max_ts) {
      o.windowed_sum += e.v;
    }
  }
  return o;
}

void WireOracles(OwnedWatermarkWorld* ow, const std::vector<Event>& events,
                 uint64_t range) {
  WatermarkWorld* s = ow->state.get();
  const auto n = static_cast<int64_t>(events.size());
  const Oracle oracle = OracleFor(events, range);
  // Shared so the monotonicity cursor stays alive with the world.
  auto cursor = std::make_shared<uint64_t>(0);
  ow->world.check_step = [s, n, cursor](const auto& fail) {
    if (s->gauge > s->max_inserted) {
      fail("watermark gauge ran ahead of the inserts it covers: gauge=" +
           std::to_string(s->gauge) + " max_inserted=" +
           std::to_string(s->max_inserted));
      return;
    }
    if (s->gauge < *cursor) {
      fail("watermark gauge moved backwards: " + std::to_string(*cursor) +
           " -> " + std::to_string(s->gauge));
      return;
    }
    *cursor = s->gauge;
    if (s->inserts > s->routed) {
      fail("worker inserted a tuple the router never accepted");
      return;
    }
    if (s->sampled && s->sampled_processed != n) {
      fail("sampler fired before quiescence: saw processed=" +
           std::to_string(s->sampled_processed));
    }
  };
  ow->world.check_final = [s, n, oracle](const auto& fail) {
    if (s->inserts != n || !s->ring.empty()) {
      fail("drain incomplete at termination: inserts=" +
           std::to_string(s->inserts) + " in_ring=" +
           std::to_string(s->ring.size()));
      return;
    }
    if (!s->sampled) {
      fail("sampler never ran (quiescence predicate never held)");
      return;
    }
    if (s->sampled_wm != oracle.max_ts) {
      fail("sampled watermark diverged: got " +
           std::to_string(s->sampled_wm) + " want " +
           std::to_string(oracle.max_ts) +
           " (gauge set must precede the processed publish)");
      return;
    }
    if (s->evicted != oracle.below_low) {
      fail("bulk eviction count diverged: got " +
           std::to_string(s->evicted) + " want " +
           std::to_string(oracle.below_low));
      return;
    }
    if (s->answer != oracle.windowed_sum) {
      fail("windowed answer diverged: got " + std::to_string(s->answer) +
           " want " + std::to_string(oracle.windowed_sum));
      return;
    }
    if (!s->tree.CheckInvariants()) {
      fail("OooTree invariants violated after the sampled eviction");
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

void RunScenario(const char* what, const std::vector<Event>& events,
                 uint64_t range, std::size_t capacity, std::size_t batch) {
  ScheduleExplorer explorer(ExploreFromEnv());
  const ExploreResult r = explorer.Explore([&] {
    auto ow = std::make_unique<OwnedWatermarkWorld>();
    ow->state = std::make_unique<WatermarkWorld>(capacity);
    ow->threads.push_back(
        std::make_unique<TimedRouterThread>(ow->state.get(), events));
    ow->threads.push_back(
        std::make_unique<EventWorkerThread>(ow->state.get(), batch));
    ow->threads.push_back(std::make_unique<WatermarkSamplerThread>(
        ow->state.get(), static_cast<int64_t>(events.size()), range));
    WireOracles(ow.get(), events, range);
    return ow;
  });
  ReportAndExpectExhausted(r, what);
}

/// Out-of-order arrivals with an eviction at the sample: the last-routed
/// tuple is NOT the newest, so a gauge computed from arrival order alone
/// (instead of the batch max) diverges, and two tuples fall below the
/// window low edge of the final sample.
TEST(WatermarkModel, OutOfOrderDrainThenSample) {
  RunScenario("OutOfOrderDrainThenSample",
              {{5, 1}, {3, 2}, {9, 3}, {7, 4}}, /*range=*/3,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/2);
}

/// Duplicate event times merge in arrival order inside the tree; the
/// gauge must still advance exactly once past them.
TEST(WatermarkModel, DuplicateTimestampsMerge) {
  RunScenario("DuplicateTimestampsMerge",
              {{4, 1}, {4, 2}, {7, 3}}, /*range=*/10,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/2);
}

/// batch=1 maximizes gauge-set/publish points: every element gets its own
/// Insert → SetGauge → Publish triple, the finest interleaving the real
/// worker can produce.
TEST(WatermarkModel, PerElementGaugePublish) {
  RunScenario("PerElementGaugePublish",
              {{6, 1}, {2, 2}, {8, 3}}, /*range=*/4,
              static_cast<std::size_t>(EnvKnob("SLICK_MODEL_CAPACITY", 2)),
              /*batch=*/1);
}

}  // namespace
}  // namespace slick::model
