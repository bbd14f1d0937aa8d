// OooTree tests: differential fuzz against a sorted std::multimap oracle
// over random insert/evict/bulk-evict interleavings for every op class
// (invertible, selective non-invertible, non-commutative string), plus
// range queries, bulk-insert span equivalence, structural invariants, and
// framed checkpoint round-trips (DESIGN.md §13). The parallel runtime's
// event-time mode, ParallelShardedEngine<OooTree>, is checked against a
// sequential oracle with watermark telemetry, and its supervised recovery
// must produce bit-identical shard state.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sliding_aggregator.h"
#include "core/subtract_on_evict.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "runtime/parallel_engine.h"
#include "telemetry/json.h"
#include "telemetry/snapshot.h"
#include "util/rng.h"
#include "util/serde.h"
#include "window/aggregator.h"
#include "window/ooo_tree.h"

namespace slick::window {
namespace {

// ---------------------------------------------------------------------
// Oracle: a sorted multimap of (t, lifted value) in arrival order. Equal
// timestamps fold together in arrival order at query time, matching the
// tree's merge-on-insert semantics; everything is recomputed from scratch
// so the oracle cannot share a bug with the tree.
// ---------------------------------------------------------------------
template <typename Op>
struct Oracle {
  using V = typename Op::value_type;
  std::multimap<uint64_t, V> entries;

  void Insert(uint64_t t, V v) { entries.emplace(t, std::move(v)); }

  bool Evict(uint64_t t) {
    auto [lo, hi] = entries.equal_range(t);
    if (lo == hi) return false;
    entries.erase(lo, hi);
    return true;
  }

  std::size_t BulkEvict(uint64_t watermark) {
    std::size_t distinct = 0;
    uint64_t prev = 0;
    bool first = true;
    auto it = entries.begin();
    while (it != entries.end() && it->first < watermark) {
      if (first || it->first != prev) ++distinct;
      prev = it->first;
      first = false;
      it = entries.erase(it);
    }
    return distinct;
  }

  V RangeFold(uint64_t lo, uint64_t hi, bool* have) const {
    V acc = Op::identity();
    *have = false;
    for (const auto& [t, v] : entries) {
      if (t < lo || t > hi) continue;
      acc = Op::combine(std::move(acc), v);
      *have = true;
    }
    return acc;
  }

  typename Op::result_type Query() const {
    bool have = false;
    return Op::lower(RangeFold(0, ~uint64_t{0}, &have));
  }

  std::size_t DistinctKeys() const {
    std::size_t n = 0;
    for (auto it = entries.begin(); it != entries.end();
         it = entries.upper_bound(it->first)) {
      ++n;
    }
    return n;
  }
};

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

// Per-op random value generators (exactly comparable types only, so the
// differential checks can use operator==).
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
std::string RandomString(util::SplitMix64& rng) {
  const std::size_t len = 1 + rng.NextBounded(3);
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  return s;
}
template <>
std::string RandomValue<ops::Concat>(util::SplitMix64& rng) {
  return RandomString(rng);
}
template <>
std::string RandomValue<ops::AlphaMax>(util::SplitMix64& rng) {
  return RandomString(rng);
}

template <typename Op, std::size_t MinArity>
void ExpectTreeMatchesOracle(const OooTree<Op, MinArity>& tree,
                             const Oracle<Op>& oracle, uint64_t seed,
                             const char* where) {
  ASSERT_TRUE(tree.CheckInvariants()) << Op::kName << " " << where;
  ASSERT_EQ(tree.size(), oracle.DistinctKeys()) << Op::kName << " " << where;
  EXPECT_EQ(tree.query(), oracle.Query()) << Op::kName << " " << where;
  if (oracle.entries.empty()) return;
  EXPECT_EQ(tree.oldest(), oracle.entries.begin()->first);
  EXPECT_EQ(tree.newest(), oracle.entries.rbegin()->first);
  // A few random range queries per checkpoint, including empty ranges.
  util::SplitMix64 rng(seed);
  const uint64_t max_t = oracle.entries.rbegin()->first;
  for (int q = 0; q < 4; ++q) {
    uint64_t lo = rng.NextBounded(max_t + 10);
    uint64_t hi = lo + rng.NextBounded(max_t / 2 + 10);
    bool oracle_have = false;
    const auto expect = Op::lower(oracle.RangeFold(lo, hi, &oracle_have));
    typename Op::value_type acc = Op::identity();
    const bool have = tree.RangeAggregate(lo, hi, &acc);
    EXPECT_EQ(have, oracle_have)
        << Op::kName << " range [" << lo << "," << hi << "] " << where;
    EXPECT_EQ(Op::lower(acc), expect)
        << Op::kName << " range [" << lo << "," << hi << "] " << where;
  }
}

/// The core differential fuzz: random interleavings of in-order inserts,
/// out-of-order inserts (>= ~35% of traffic, well above the 10% bar),
/// exact evictions, and watermark bulk evictions, validated against the
/// oracle after every step.
template <typename Op, std::size_t MinArity>
void FuzzAgainstOracle(uint64_t seed, std::size_t steps) {
  util::SplitMix64 rng(seed);
  OooTree<Op, MinArity> tree;
  Oracle<Op> oracle;
  uint64_t clock = 0;  // the in-order frontier

  for (std::size_t step = 0; step < steps; ++step) {
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 35) {  // in-order insert (sometimes a duplicate timestamp)
      clock += rng.NextBounded(3);
      auto v = RandomValue<Op>(rng);
      tree.Insert(clock, v);
      oracle.Insert(clock, v);
    } else if (dice < 70) {  // out-of-order insert at distance up to 64
      const uint64_t d = 1 + rng.NextBounded(64);
      const uint64_t t = clock > d ? clock - d : 0;
      auto v = RandomValue<Op>(rng);
      tree.Insert(t, v);
      oracle.Insert(t, v);
    } else if (dice < 85) {  // exact eviction (existing or missing key)
      uint64_t t;
      if (!oracle.entries.empty() && rng.NextBounded(4) != 0) {
        auto it = oracle.entries.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.NextBounded(oracle.entries.size())));
        t = it->first;
      } else {
        t = rng.NextBounded(clock + 2);
      }
      EXPECT_EQ(tree.Evict(t), oracle.Evict(t)) << Op::kName << " t=" << t;
    } else if (dice < 92) {  // watermark bulk eviction
      const uint64_t span = tree.empty() ? 0 : tree.newest() - tree.oldest();
      const uint64_t w =
          tree.empty() ? clock : tree.oldest() + rng.NextBounded(span + 2);
      EXPECT_EQ(tree.BulkEvict(w), oracle.BulkEvict(w))
          << Op::kName << " w=" << w;
    } else {  // bulk insert of a small span (mostly sorted, some stragglers)
      std::vector<Timed<typename Op::value_type>> span(1 +
                                                       rng.NextBounded(24));
      uint64_t t = clock;
      for (auto& e : span) {
        if (rng.NextBounded(100) < 20 && t > 16) {
          e.t = t - 1 - rng.NextBounded(16);  // straggler inside the span
        } else {
          t += rng.NextBounded(3);
          e.t = t;
        }
        e.v = RandomValue<Op>(rng);
        oracle.Insert(e.t, e.v);
      }
      clock = std::max(clock, t);
      tree.BulkInsert(span.data(), span.size());
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectTreeMatchesOracle(tree, oracle, seed ^ step, "fuzz step"));
  }
}

TEST(OooTreeTest, InOrderInsertAndQuery) {
  OooTree<ops::SumInt> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.query(), 0);
  int64_t sum = 0;
  for (uint64_t t = 0; t < 500; ++t) {
    tree.Insert(t, static_cast<int64_t>(t));
    sum += static_cast<int64_t>(t);
    ASSERT_EQ(tree.query(), sum);
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_EQ(tree.oldest(), 0u);
  EXPECT_EQ(tree.newest(), 499u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(OooTreeTest, EqualTimestampsMergeInArrivalOrder) {
  OooTree<ops::Concat> tree;
  tree.Insert(5, "a");
  tree.Insert(7, "x");
  tree.Insert(5, "b");  // merges into t=5 as "ab"
  tree.Insert(3, "0");
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.query(), "0abx");
  EXPECT_EQ(tree.RangeQuery(5, 5), "ab");
}

TEST(OooTreeTest, BulkEvictAdvancesWindow) {
  OooTree<ops::MaxInt, 2> tree;  // tiny arity: constant rebalancing
  for (uint64_t t = 0; t < 300; ++t) {
    tree.Insert(t, static_cast<int64_t>((t * 37) % 101));
  }
  EXPECT_EQ(tree.BulkEvict(0), 0u) << "watermark below oldest is a no-op";
  EXPECT_EQ(tree.BulkEvict(100), 100u);
  EXPECT_EQ(tree.oldest(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
  // Whole-tree eviction, then reuse.
  EXPECT_EQ(tree.BulkEvict(1000), 200u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants());
  tree.Insert(2000, 5);
  EXPECT_EQ(tree.query(), 5);
}

TEST(OooTreeTest, RangeQueryRespectsStreamOrderForNonCommutativeOps) {
  // Concat is the order-correctness probe: any combine out of time order
  // is visible in the output string.
  OooTree<ops::Concat, 2> tree;
  std::string expect;
  for (uint64_t t = 0; t < 26; ++t) {
    expect.push_back(static_cast<char>('a' + t));
  }
  // Insert every even timestamp first, then the odds out of order.
  for (uint64_t t = 0; t < 26; t += 2) {
    tree.Insert(t, std::string(1, static_cast<char>('a' + t)));
  }
  for (uint64_t t = 25; t < 26; t -= 2) {
    tree.Insert(t, std::string(1, static_cast<char>('a' + t)));
  }
  EXPECT_EQ(tree.query(), expect);
  EXPECT_EQ(tree.RangeQuery(10, 15), expect.substr(10, 6));
  EXPECT_EQ(tree.RangeQuery(0, 25), expect);
  EXPECT_EQ(tree.RangeQuery(26, 99), "");
}

TEST(OooTreeTest, DifferentialFuzzInvertibleOp) {
  FuzzAgainstOracle<ops::SumInt, 2>(101, 600);
  FuzzAgainstOracle<ops::SumInt, 8>(102, 600);
}

TEST(OooTreeTest, DifferentialFuzzSelectiveOp) {
  FuzzAgainstOracle<ops::MaxInt, 2>(201, 600);
  FuzzAgainstOracle<ops::MaxInt, 8>(202, 600);
}

TEST(OooTreeTest, DifferentialFuzzNonCommutativeStringOp) {
  FuzzAgainstOracle<ops::Concat, 2>(301, 400);
  FuzzAgainstOracle<ops::Concat, 8>(302, 400);
}

TEST(OooTreeTest, DifferentialFuzzSelectiveStringOp) {
  FuzzAgainstOracle<ops::AlphaMax, 2>(401, 400);
  FuzzAgainstOracle<ops::AlphaMax, 8>(402, 400);
}

TEST(OooTreeTest, BulkInsertMatchesElementwiseInsert) {
  // A span with ~25% out-of-order traffic must land identically to the
  // per-element path — same structure-independent answers, same entries.
  util::SplitMix64 rng(77);
  std::vector<Timed<int64_t>> span(4000);
  uint64_t t = 0;
  for (auto& e : span) {
    if (rng.NextBounded(4) == 0 && t > 100) {
      e.t = t - 1 - rng.NextBounded(100);
    } else {
      t += 1 + rng.NextBounded(2);
      e.t = t;
    }
    e.v = static_cast<int64_t>(rng.NextBounded(1000));
  }
  OooTree<ops::SumInt> bulk;
  bulk.BulkInsert(span.data(), span.size());
  OooTree<ops::SumInt> scalar;
  for (const auto& e : span) scalar.Insert(e.t, e.v);
  EXPECT_TRUE(bulk.CheckInvariants());
  EXPECT_EQ(bulk.size(), scalar.size());
  EXPECT_EQ(bulk.query(), scalar.query());
  std::vector<std::pair<uint64_t, int64_t>> a, b;
  bulk.ForEachEntry([&](uint64_t tt, int64_t v) { a.emplace_back(tt, v); });
  scalar.ForEachEntry([&](uint64_t tt, int64_t v) { b.emplace_back(tt, v); });
  EXPECT_EQ(a, b);
}

template <typename Op>
void CheckpointRoundTrip(uint64_t seed) {
  util::SplitMix64 rng(seed);
  OooTree<Op, 4> tree;
  uint64_t clock = 0;
  for (int i = 0; i < 700; ++i) {
    if (rng.NextBounded(3) == 0 && clock > 40) {
      tree.Insert(clock - 1 - rng.NextBounded(40), RandomValue<Op>(rng));
    } else {
      clock += rng.NextBounded(3);
      tree.Insert(clock, RandomValue<Op>(rng));
    }
  }
  tree.BulkEvict(clock / 4);

  std::ostringstream out;
  util::SaveStateFramed(tree, out);
  const std::string bytes = out.str();

  OooTree<Op, 4> restored;
  std::istringstream in(bytes);
  ASSERT_EQ(util::LoadStateFramed(&restored, in), util::FrameError::kOk);
  EXPECT_TRUE(restored.CheckInvariants());
  EXPECT_EQ(restored.size(), tree.size());
  EXPECT_EQ(restored.query(), tree.query());
  std::vector<std::pair<uint64_t, typename Op::value_type>> a, b;
  tree.ForEachEntry([&](uint64_t t, const auto& v) { a.emplace_back(t, v); });
  restored.ForEachEntry(
      [&](uint64_t t, const auto& v) { b.emplace_back(t, v); });
  EXPECT_EQ(a, b);

  // The serialized form is a pure function of content: re-saving the
  // restored replica reproduces the exact bytes (what makes supervised
  // recovery checkpoints bit-identical).
  std::ostringstream out2;
  util::SaveStateFramed(restored, out2);
  EXPECT_EQ(out2.str(), bytes);

  // Corruption anywhere in the frame is detected, never half-applied.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x20;
  OooTree<Op, 4> victim;
  std::istringstream bad(corrupt);
  EXPECT_NE(util::LoadStateFramed(&victim, bad), util::FrameError::kOk);
}

TEST(OooTreeTest, CheckpointRoundTripPodValues) {
  CheckpointRoundTrip<ops::SumInt>(11);
  CheckpointRoundTrip<ops::MaxInt>(12);
}

TEST(OooTreeTest, CheckpointRoundTripStringValues) {
  CheckpointRoundTrip<ops::Concat>(13);
  CheckpointRoundTrip<ops::AlphaMax>(14);
}

TEST(OooTreeTest, MemoryBytesGrowsAndShrinks) {
  OooTree<ops::SumInt> tree;
  const std::size_t empty_bytes = tree.memory_bytes();
  for (uint64_t t = 0; t < 10000; ++t) tree.Insert(t, 1);
  const std::size_t full_bytes = tree.memory_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  tree.BulkEvict(10000);
  EXPECT_LT(tree.memory_bytes(), full_bytes);
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
}  // namespace slick::window
