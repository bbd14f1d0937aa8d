// End-to-end integration: the full pipeline a deployment would run —
// out-of-order sensor stream -> reorder buffer -> per-key event-time
// windows + a shared multi-ACQ engine -> answers, with a checkpoint/restore
// in the middle. Everything is validated against brute-force models.

#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/monotonic_deque.h"
#include "core/slick_deque_inv.h"
#include "core/time_window.h"
#include "engine/acq_engine.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "stream/reorder.h"
#include "stream/synthetic.h"
#include "util/rng.h"

namespace slick {
namespace {

TEST(IntegrationTest, ReorderedSensorStreamThroughKeyedTimeWindows) {
  // Three sensor channels, events shuffled within a bounded horizon, then
  // reordered and routed into per-channel event-time Max windows.
  constexpr uint64_t kHorizon = 8;
  constexpr uint64_t kRange = 50;  // time units
  stream::SyntheticSensorSource source(3);

  struct Event {
    uint64_t seq;
    uint64_t key;
    double value;
  };
  std::vector<Event> events;
  for (uint64_t t = 0; t < 3000; ++t) {
    const auto tup = source.Next();
    events.push_back({t, t % 3, tup.energy[t % 3]});
  }
  // Bounded block shuffle.
  util::SplitMix64 rng(9);
  for (std::size_t lo = 0; lo < events.size(); lo += kHorizon) {
    const std::size_t hi = std::min(lo + kHorizon, events.size());
    for (std::size_t i = hi - 1; i > lo; --i) {
      std::swap(events[i], events[lo + rng.NextBounded(i - lo + 1)]);
    }
  }

  stream::ReorderBuffer<Event> reorder(kHorizon);
  std::map<uint64_t, core::TimeWindow<core::MonotonicDeque<ops::Max>>> windows;
  std::map<uint64_t, std::deque<std::pair<uint64_t, double>>> model;

  auto feed = [&](uint64_t, Event e) {
    auto [it, inserted] = windows.try_emplace(e.key, kRange);
    it->second.Observe(e.seq, e.value);
    auto& dq = model[e.key];
    dq.emplace_back(e.seq, e.value);
    while (!dq.empty() && dq.front().first + kRange <= e.seq) dq.pop_front();
    double expect = -1e300;
    for (const auto& [ts, v] : dq) expect = std::max(expect, v);
    ASSERT_DOUBLE_EQ(it->second.query(), expect) << "key=" << e.key;
  };
  for (const Event& e : events) {
    ASSERT_EQ(reorder.Offer(e.seq, e, feed), stream::Admission::kAdmitted);
  }
  reorder.Flush(feed);
  EXPECT_EQ(windows.size(), 3u);
}

TEST(IntegrationTest, EngineSurvivesCheckpointRestoreMidStream) {
  // A shared-plan engine whose aggregator is checkpointed mid-stream; a
  // recovered engine (fresh engine + restored aggregator state) must
  // produce identical answers from that point on. The engine's plan
  // position is recovered by aligning the checkpoint to a composite-slide
  // boundary, exactly what a DSMS checkpointing at epoch boundaries does.
  using Agg = core::SlickDequeInv<ops::SumInt>;
  const std::vector<plan::QuerySpec> queries = {{24, 4}, {10, 2}};
  engine::AcqEngine<Agg> original(queries, plan::Pat::kPairs);

  util::SplitMix64 rng(11);
  std::vector<int64_t> stream(600);
  for (auto& v : stream) v = static_cast<int64_t>(rng.NextBounded(1000));

  // Run to a composite boundary (composite slide = 4): tuple 400.
  std::vector<std::pair<uint32_t, int64_t>> tail_original;
  for (std::size_t t = 0; t < 400; ++t) {
    original.Push(stream[t], [](uint32_t, int64_t) {});
  }
  std::stringstream checkpoint;
  original.aggregator().SaveState(checkpoint);

  // Crash. Recover: a fresh engine starts at a composite boundary, which
  // tuple 400 is, so restoring the aggregator state resumes it exactly.
  engine::AcqEngine<Agg> recovered(queries, plan::Pat::kPairs);
  ASSERT_TRUE(recovered.mutable_aggregator().LoadState(checkpoint));

  std::vector<std::pair<uint32_t, int64_t>> tail_recovered;
  for (std::size_t t = 400; t < stream.size(); ++t) {
    original.Push(stream[t], [&](uint32_t q, int64_t a) {
      tail_original.emplace_back(q, a);
    });
    recovered.Push(stream[t], [&](uint32_t q, int64_t a) {
      tail_recovered.emplace_back(q, a);
    });
  }
  EXPECT_FALSE(tail_original.empty());
  EXPECT_EQ(tail_original, tail_recovered);
}

}  // namespace
}  // namespace slick
