// Event-time aggregation tests (DESIGN.md §13): the EventTimeAcqEngine
// checked differentially against the pane-based TimeAcqEngine (identical
// answers on in-order streams with zero lateness, and convergence to the
// in-order answers under bounded shuffles), the parallel runtime's
// event-time mode against a sequential oracle with watermark telemetry,
// and supervised recovery of an event-time query producing bit-identical
// shard state.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sliding_aggregator.h"
#include "core/subtract_on_evict.h"
#include "engine/event_time_engine.h"
#include "engine/time_acq_engine.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "runtime/parallel_engine.h"
#include "telemetry/json.h"
#include "telemetry/sink.h"
#include "util/rng.h"
#include "util/serde.h"
#include "window/aggregator.h"
#include "window/ooo_tree.h"

namespace slick {
namespace {

using engine::EventEngineFor;
using engine::EventTimeAcqEngine;
using engine::TimeEngineFor;
using engine::TimeQuerySpec;
using plan::Pat;

// ---------------------------------------------------------------------
// Arrival-capability dispatch (core/sliding_aggregator.h): kOutOfOrder
// selects the OoO tree for every op class; kInOrder keeps the SlickDeque
// family picks; the tree satisfies the OutOfOrderAggregator concept and
// the count-based aggregators do not.
// ---------------------------------------------------------------------
static_assert(
    std::is_same_v<core::ArrivalAggregatorFor<ops::SumInt,
                                              core::Arrival::kOutOfOrder>,
                   window::OooTree<ops::SumInt>>);
static_assert(
    std::is_same_v<core::ArrivalAggregatorFor<ops::Concat,
                                              core::Arrival::kOutOfOrder>,
                   window::OooTree<ops::Concat>>);
static_assert(std::is_same_v<core::ArrivalAggregatorFor<ops::SumInt>,
                             core::SubtractOnEvict<ops::SumInt>>);
static_assert(window::OutOfOrderAggregator<window::OooTree<ops::MaxInt>>);
static_assert(
    !window::OutOfOrderAggregator<core::SubtractOnEvict<ops::SumInt>>);
static_assert(
    runtime::ParallelShardedEngine<window::OooTree<ops::SumInt>>::kEventTime);

template <typename Op>
typename Op::value_type RandomValue(util::SplitMix64& rng);

template <>
int64_t RandomValue<ops::SumInt>(util::SplitMix64& rng) {
  return static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
}
template <>
int64_t RandomValue<ops::MaxInt>(util::SplitMix64& rng) {
  return static_cast<int64_t>(rng.NextBounded(1000000));
}
template <>
std::string RandomValue<ops::Concat>(util::SplitMix64& rng) {
  std::string s;
  const std::size_t len = 1 + rng.NextBounded(3);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  return s;
}

/// Collects per-query answer vectors from a sink callback.
template <typename Result>
struct AnswerLog {
  std::vector<std::vector<Result>> per_query;
  explicit AnswerLog(std::size_t queries) : per_query(queries) {}
  void operator()(uint32_t q, const Result& r) {
    ASSERT_LT(q, per_query.size());
    per_query[q].push_back(r);
  }
};

// ---------------------------------------------------------------------
// Differential: on an IN-ORDER stream with zero lateness, the event-time
// engine and the pane-based time engine emit identical per-query answer
// sequences — the event path is a strict generalization.
// ---------------------------------------------------------------------
template <typename Op>
void ExpectMatchesPaneEngine(uint64_t seed,
                             const std::vector<TimeQuerySpec>& queries) {
  TimeEngineFor<Op> pane(queries, Pat::kPairs);
  EventEngineFor<Op> event(queries, /*lateness=*/0);
  AnswerLog<typename Op::result_type> pane_log(queries.size());
  AnswerLog<typename Op::result_type> event_log(queries.size());

  util::SplitMix64 rng(seed);
  uint64_t ts = 1;
  for (int i = 0; i < 3000; ++i) {
    ts += rng.NextBounded(8);  // gaps, bursts, and repeated timestamps
    const auto v = RandomValue<Op>(rng);
    pane.Observe(ts, v, pane_log);
    EXPECT_TRUE(event.Observe(ts, v, event_log));
  }
  const uint64_t end = ts + 200;
  pane.AdvanceTo(end, pane_log);
  event.AdvanceTo(end, event_log);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_FALSE(pane_log.per_query[q].empty()) << Op::kName << " q" << q;
    EXPECT_EQ(event_log.per_query[q], pane_log.per_query[q])
        << Op::kName << " query " << q << " seed " << seed;
  }
}

TEST(EventTimeEngineTest, MatchesPaneEngineOnInOrderStreams) {
  const std::vector<TimeQuerySpec> multi = {{20, 5}, {50, 10}, {15, 15}};
  // Plain-associative ops (Concat) resolve the reference engine to
  // Windowed<Daba>, which only answers the full-window range — so the
  // shared-plan reference must hold one query per range there.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectMatchesPaneEngine<ops::SumInt>(seed, multi);
    ExpectMatchesPaneEngine<ops::MaxInt>(seed * 31, multi);
    ExpectMatchesPaneEngine<ops::Concat>(seed * 97, {{20, 5}});
    ExpectMatchesPaneEngine<ops::Concat>(seed * 97 + 1, {{15, 15}});
  }
}

// ---------------------------------------------------------------------
// Differential: a bounded shuffle fed with lateness >= the maximum
// displacement converges to EXACTLY the in-order answers — including for
// the non-commutative Concat, since the tree re-sorts by event time.
// ---------------------------------------------------------------------
template <typename Op>
void ExpectShuffleConverges(uint64_t seed,
                            const std::vector<TimeQuerySpec>& queries) {
  constexpr std::size_t kN = 2500;
  constexpr std::size_t kWindow = 24;  // shuffle displacement in positions
  util::SplitMix64 rng(seed);

  std::vector<window::Timed<typename Op::value_type>> events(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Strictly increasing timestamps so the shuffle never reorders equal
    // stamps (whose arrival-order merge would legitimately differ).
    events[i].t = 4 * i + 1 + rng.NextBounded(3);
    events[i].v = RandomValue<Op>(rng);
  }

  TimeEngineFor<Op> reference(queries, Pat::kPairs);
  AnswerLog<typename Op::result_type> ref_log(queries.size());
  for (const auto& e : events) reference.Observe(e.t, e.v, ref_log);

  // Block shuffle: full Fisher-Yates inside each kWindow-sized block, so
  // positional displacement is < kWindow both ways and the event-time
  // displacement is < 4 * kWindow. (A sliding "pick from [i, i+W]" shuffle
  // does NOT bound forward displacement — unpicked elements keep getting
  // bounced ahead.)
  auto shuffled = events;
  for (std::size_t b = 0; b < kN; b += kWindow) {
    const std::size_t end = std::min(b + kWindow, kN);
    for (std::size_t i = b; i + 1 < end; ++i) {
      const std::size_t j = i + rng.NextBounded(end - i);
      std::swap(shuffled[i], shuffled[j]);
    }
  }
  const uint64_t lateness = 4 * (kWindow + 1) + 4;
  EventEngineFor<Op> event(queries, lateness);
  AnswerLog<typename Op::result_type> event_log(queries.size());
  for (const auto& e : shuffled) {
    EXPECT_TRUE(event.Observe(e.t, e.v, event_log))
        << "nothing may be dropped when lateness covers the displacement";
  }

  const uint64_t end = events.back().t + 200;
  reference.AdvanceTo(end, ref_log);
  event.AdvanceTo(end + lateness, event_log);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(event_log.per_query[q], ref_log.per_query[q])
        << Op::kName << " query " << q << " seed " << seed;
  }
  EXPECT_EQ(event.late_dropped(), 0u);
}

TEST(EventTimeEngineTest, BoundedShuffleConvergesToInOrderAnswers) {
  const std::vector<TimeQuerySpec> multi = {{40, 8}, {100, 20}};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectShuffleConverges<ops::SumInt>(seed, multi);
    ExpectShuffleConverges<ops::MaxInt>(seed * 13, multi);
    // Single query for Concat: see MatchesPaneEngineOnInOrderStreams.
    ExpectShuffleConverges<ops::Concat>(seed * 101, {{40, 8}});
    ExpectShuffleConverges<ops::Concat>(seed * 101 + 1, {{100, 20}});
  }
}

TEST(EventTimeEngineTest, DropsOnlyTuplesBelowTheEvictionFloor) {
  EventEngineFor<ops::SumInt> eng({{10, 10}}, /*lateness=*/0);
  auto sink = [](uint32_t, int64_t) {};
  EXPECT_TRUE(eng.Observe(100, 1, sink));  // boundaries through 100 emitted
  // The next emittable window is [100, 110): ts 105 is still coverable...
  EXPECT_TRUE(eng.Observe(105, 1, sink));
  // ...but ts 99 is behind every window that can still emit: dropped.
  EXPECT_FALSE(eng.Observe(99, 1, sink));
  EXPECT_EQ(eng.late_dropped(), 1u);
  EXPECT_EQ(eng.watermark(), 105u);
}

TEST(EventTimeEngineTest, TelemetryReportsBoundariesAndWatermark) {
  EventTimeAcqEngine<ops::SumInt, core::OooAggregatorFor<ops::SumInt>,
                     telemetry::CountingEngineSink>
      eng({{10, 5}}, /*lateness=*/0);
  auto sink = [](uint32_t, int64_t) {};
  eng.Observe(3, 7, sink);
  eng.Observe(23, 7, sink);  // boundaries 5, 10, 15, 20 become due
  const telemetry::EngineCounters& c = eng.telemetry().counters;
  EXPECT_EQ(c.tuples_in, 2u);
  EXPECT_EQ(c.answers, 4u);
  EXPECT_EQ(c.panes_closed, 4u);
  EXPECT_EQ(c.watermark, 20u) << "gauge tracks the newest emitted boundary";
}

// ---------------------------------------------------------------------
// Engine checkpoint: framed round-trip restores behavior exactly (the
// restored engine emits the same future answers) and re-saving is
// byte-identical — the property supervised recovery builds on.
// ---------------------------------------------------------------------
TEST(EventTimeEngineTest, FramedCheckpointRoundTripResumesIdentically) {
  const std::vector<TimeQuerySpec> queries = {{30, 10}, {12, 6}};
  EventEngineFor<ops::SumInt> a(queries, /*lateness=*/16);
  util::SplitMix64 rng(77);
  auto ignore = [](uint32_t, int64_t) {};
  uint64_t ts = 1;
  for (int i = 0; i < 500; ++i) {
    ts += rng.NextBounded(6);
    const uint64_t jitter = rng.NextBounded(12);
    a.Observe(ts > jitter ? ts - jitter : ts, RandomValue<ops::SumInt>(rng),
              ignore);
  }

  std::ostringstream frame;
  util::SaveStateFramed(a, frame);
  EventEngineFor<ops::SumInt> b(queries, /*lateness=*/16);
  std::istringstream in(frame.str());
  ASSERT_EQ(util::LoadStateFramed(&b, in), util::FrameError::kOk);

  std::ostringstream resaved;
  util::SaveStateFramed(b, resaved);
  EXPECT_EQ(resaved.str(), frame.str()) << "checkpoint is byte-stable";
  EXPECT_EQ(b.watermark(), a.watermark());
  EXPECT_EQ(b.late_dropped(), a.late_dropped());

  AnswerLog<int64_t> log_a(queries.size());
  AnswerLog<int64_t> log_b(queries.size());
  for (int i = 0; i < 300; ++i) {
    ts += rng.NextBounded(6);
    const auto v = RandomValue<ops::SumInt>(rng);
    a.Observe(ts, v, log_a);
    b.Observe(ts, v, log_b);
  }
  a.AdvanceTo(ts + 100, log_a);
  b.AdvanceTo(ts + 100, log_b);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(log_b.per_query[q], log_a.per_query[q]);
  }

  // A corrupted frame is rejected with a typed error, not absorbed.
  std::string bad = frame.str();
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x20);
  EventEngineFor<ops::SumInt> c(queries, /*lateness=*/16);
  std::istringstream bad_in(bad);
  EXPECT_NE(util::LoadStateFramed(&c, bad_in), util::FrameError::kOk);
}

// ---------------------------------------------------------------------
// Parallel runtime event mode vs a sequential oracle that replicates the
// round-robin routing and per-shard watermark protocol.
// ---------------------------------------------------------------------
TEST(ParallelEventTimeTest, MatchesSequentialOracleAcrossShards) {
  constexpr std::size_t kShards = 4;
  constexpr uint64_t kRange = 300;
  constexpr std::size_t kN = 20000;
  using Tree = window::OooTree<ops::SumInt>;

  util::SplitMix64 rng(4242);
  std::vector<window::Timed<int64_t>> events(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const uint64_t base = i + 1;
    const uint64_t jitter = rng.NextBounded(40);
    events[i].t = base > jitter ? base - jitter : base;
    events[i].v = RandomValue<ops::SumInt>(rng);
  }

  runtime::ParallelShardedEngine<Tree>::Options opt;
  opt.batch = 64;
  runtime::ParallelShardedEngine<Tree> eng(kRange, kShards, opt);
  std::vector<uint64_t> shard_max(kShards, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    eng.push(events[i].t, events[i].v);
    shard_max[i % kShards] = std::max(shard_max[i % kShards], events[i].t);
  }

  const uint64_t expected_wm =
      *std::min_element(shard_max.begin(), shard_max.end());
  const uint64_t lo = expected_wm >= kRange ? expected_wm - kRange + 1 : 0;
  int64_t expected = 0;
  for (const auto& e : events) {
    if (e.t >= lo && e.t <= expected_wm) expected += e.v;
  }

  EXPECT_EQ(eng.query(), expected);
  EXPECT_EQ(eng.watermark(), expected_wm);
  EXPECT_EQ(eng.max_ts_routed(),
            *std::max_element(shard_max.begin(), shard_max.end()));

  // The quiescent query bulk-evicted everything behind the window on every
  // shard: per-shard trees hold only coverable entries.
  for (std::size_t i = 0; i < kShards; ++i) {
    if (!eng.shard(i).empty()) {
      EXPECT_GE(eng.shard(i).oldest(), lo);
    }
  }
  eng.stop();
}

TEST(ParallelEventTimeTest, SnapshotReportsEventTimeWatermarks) {
  using Tree = window::OooTree<ops::MaxInt>;
  runtime::ParallelShardedEngine<Tree> eng(/*range=*/100, /*shards=*/2);
  for (uint64_t i = 1; i <= 1000; ++i) eng.push(i, static_cast<int64_t>(i));
  // Shard 0 holds the odd timestamps (max 999), shard 1 the even (max
  // 1000): the global watermark is 999, so ts 1000 is still AHEAD of the
  // window (899, 999] and the answer is 999.
  EXPECT_EQ(eng.query(), 999);
  EXPECT_EQ(eng.watermark(), 999u);

  const telemetry::RuntimeSnapshot snap = eng.snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  for (const telemetry::ShardSnapshot& s : snap.shards) {
    // Quiescent cut: each shard drained everything routed to it, so its
    // watermark is that shard's max routed ts (999 or 1000) and the
    // event-time lag is at most one round-robin step.
    EXPECT_GE(s.watermark, 999u);
    EXPECT_LE(s.watermark_lag, 1u);
  }
  const std::string json = ToJson(snap.shards[0]);
  EXPECT_NE(json.find("\"watermark\":"), std::string::npos) << json;
  eng.stop();
}

TEST(ParallelEventTimeTest, SupervisedRecoveryIsBitIdentical) {
  constexpr std::size_t kShards = 2;
  constexpr uint64_t kRange = 500;
  constexpr std::size_t kN = 6000;
  using Tree = window::OooTree<ops::SumInt>;
  using Engine = runtime::ParallelShardedEngine<Tree>;

  util::SplitMix64 rng(909);
  std::vector<window::Timed<int64_t>> events(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const uint64_t base = i + 1;
    const uint64_t jitter = rng.NextBounded(64);
    events[i].t = base > jitter ? base - jitter : base;
    events[i].v = RandomValue<ops::SumInt>(rng);
  }

  Engine::Options opt;
  opt.batch = 32;
  opt.ring_capacity = 1 << 10;
  opt.checkpoint_interval = 128;

  const auto run = [&](bool inject) {
    Engine eng(kRange, kShards, opt);
    if (inject) {
      eng.InjectWorkerKill(0, runtime::KillPoint::kAfterSlide, 3);
      eng.InjectWorkerKill(1, runtime::KillPoint::kBeforeSlide, 5);
    }
    eng.push_n(events.data(), events.size());
    const int64_t answer = eng.query();
    const uint64_t wm = eng.watermark();
    std::vector<std::string> states;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::ostringstream os;
      eng.shard(i).SaveState(os);
      states.push_back(os.str());
    }
    const uint64_t restarts = eng.stats().restarts;
    eng.stop();
    return std::tuple(answer, wm, states, restarts);
  };

  const auto [ans_clean, wm_clean, st_clean, restarts_clean] = run(false);
  const auto [ans_fault, wm_fault, st_fault, restarts_fault] = run(true);

  EXPECT_EQ(restarts_clean, 0u);
  EXPECT_GE(restarts_fault, 2u) << "both injected kills must have fired";
  EXPECT_EQ(ans_fault, ans_clean);
  EXPECT_EQ(wm_fault, wm_clean);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(st_fault[i], st_clean[i])
        << "shard " << i << " state diverged across crash recovery";
  }
}

}  // namespace
}  // namespace slick
