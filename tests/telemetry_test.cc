// Property tests for the telemetry layer (telemetry/): histogram bucket
// geometry, merge algebra (associative + commutative), quantile agreement
// with the exact sorted-sample path within the documented bucket-relative
// error, count conservation under concurrent recording (the test the CI
// TSan job runs — names keep the "Telemetry" token for its filter), and
// the counter/gauge/JSON plumbing.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "ops/arith.h"
#include "runtime/mpmc_ring.h"
#include "runtime/parallel_engine.h"
#include "telemetry/counters.h"
#include "telemetry/histogram.h"
#include "telemetry/json.h"
#include "telemetry/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"

namespace slick::telemetry {
namespace {

using Snapshot = LatencyHistogram::Snapshot;

// ---------------------------------------------------------------------
// Bucket geometry.
// ---------------------------------------------------------------------

TEST(TelemetryHistogramTest, BucketGeometryRoundTrips) {
  util::SplitMix64 rng(0xB0C);
  // Every value lies inside its bucket's [lower, upper] range, and bucket
  // width never exceeds the documented relative error.
  for (int trial = 0; trial < 20000; ++trial) {
    const int bits = 1 + static_cast<int>(rng.NextBounded(63));
    const uint64_t v = rng.NextU64() >> (64 - bits);
    const std::size_t i = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(i, LatencyHistogram::kBucketCount);
    const uint64_t lo = LatencyHistogram::BucketLower(i);
    const uint64_t hi = LatencyHistogram::BucketUpper(i);
    ASSERT_LE(lo, v) << "v=" << v << " i=" << i;
    ASSERT_GE(hi, v) << "v=" << v << " i=" << i;
    if (lo > 0) {
      ASSERT_LE(static_cast<double>(hi - lo),
                LatencyHistogram::kRelativeError * static_cast<double>(lo) +
                    1e-9)
          << "bucket " << i << " too wide";
    }
  }
}

TEST(TelemetryHistogramTest, BucketIndexIsMonotone) {
  // Spot-check monotonicity across bucket boundaries at every octave.
  for (uint32_t shift = 0; shift < 63; ++shift) {
    const uint64_t v = uint64_t{1} << shift;
    EXPECT_LE(LatencyHistogram::BucketIndex(v - 1),
              LatencyHistogram::BucketIndex(v));
    EXPECT_LE(LatencyHistogram::BucketIndex(v),
              LatencyHistogram::BucketIndex(v + 1));
  }
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(~uint64_t{0}),
            LatencyHistogram::kBucketCount - 1);
}

TEST(TelemetryHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    h.Record(v);
  }
  const Snapshot s = h.TakeSnapshot();
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(s.counts[LatencyHistogram::BucketIndex(v)], 1u);
    EXPECT_DOUBLE_EQ(Snapshot::BucketValue(LatencyHistogram::BucketIndex(v)),
                     static_cast<double>(v));
  }
}

// ---------------------------------------------------------------------
// Merge algebra: associative and commutative, with Snapshot{} the identity.
// ---------------------------------------------------------------------

Snapshot RandomSnapshot(util::SplitMix64& rng, int samples) {
  LatencyHistogram h;
  for (int i = 0; i < samples; ++i) {
    h.Record(rng.NextU64() >> (rng.NextBounded(50) + 8));
  }
  return h.TakeSnapshot();
}

TEST(TelemetryHistogramTest, MergeIsCommutative) {
  util::SplitMix64 rng(0xC0FFEE);
  for (int trial = 0; trial < 20; ++trial) {
    const Snapshot a = RandomSnapshot(rng, 500);
    const Snapshot b = RandomSnapshot(rng, 300);
    Snapshot ab = a;
    ab.Merge(b);
    Snapshot ba = b;
    ba.Merge(a);
    EXPECT_EQ(ab.counts, ba.counts);
    EXPECT_EQ(ab.sum, ba.sum);
  }
}

TEST(TelemetryHistogramTest, MergeIsAssociative) {
  util::SplitMix64 rng(0xABCD);
  for (int trial = 0; trial < 20; ++trial) {
    const Snapshot a = RandomSnapshot(rng, 400);
    const Snapshot b = RandomSnapshot(rng, 200);
    const Snapshot c = RandomSnapshot(rng, 600);
    Snapshot ab_c = a;
    ab_c.Merge(b);
    ab_c.Merge(c);
    Snapshot bc = b;
    bc.Merge(c);
    Snapshot a_bc = a;
    a_bc.Merge(bc);
    EXPECT_EQ(ab_c.counts, a_bc.counts);
    EXPECT_EQ(ab_c.sum, a_bc.sum);
  }
}

TEST(TelemetryHistogramTest, EmptySnapshotIsMergeIdentity) {
  util::SplitMix64 rng(0xE4417);
  const Snapshot a = RandomSnapshot(rng, 250);
  Snapshot right = a;
  right.Merge(Snapshot{});
  EXPECT_EQ(right.counts, a.counts);
  EXPECT_EQ(right.sum, a.sum);
  Snapshot left;
  left.Merge(a);
  EXPECT_EQ(left.counts, a.counts);
  EXPECT_EQ(left.sum, a.sum);
  Snapshot both;
  both.Merge(Snapshot{});
  EXPECT_TRUE(both.counts.empty());
  EXPECT_EQ(both.sum, 0u);
}

// ---------------------------------------------------------------------
// Quantile agreement with the exact sorted-sample path.
// ---------------------------------------------------------------------

/// Feeds identical samples to the histogram and a sorted vector; every
/// quantile estimate must be within one bucket's relative error of the
/// exact nearest-rank order statistic.
void CheckQuantileAgreement(const std::vector<uint64_t>& samples) {
  LatencyHistogram h;
  for (uint64_t v : samples) h.Record(v);
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.total(), samples.size());
  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    const auto exact = static_cast<double>(sorted[rank]);
    const double est = snap.Quantile(q);
    const double tol =
        LatencyHistogram::kRelativeError * (exact > 1.0 ? exact : 1.0);
    ASSERT_NEAR(est, exact, tol) << "q=" << q << " n=" << samples.size();
  }
  // The mean is exact (the sum is tracked outside the buckets).
  long double total = 0;
  for (uint64_t v : samples) total += v;
  ASSERT_DOUBLE_EQ(
      snap.Mean(),
      static_cast<double>(total / static_cast<long double>(samples.size())));
}

TEST(TelemetryHistogramTest, QuantilesMatchSortedSamplesUniform) {
  util::SplitMix64 rng(0x5EED);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> samples;
    const int n = 1 + static_cast<int>(rng.NextBounded(5000));
    for (int i = 0; i < n; ++i) samples.push_back(rng.NextBounded(1 << 22));
    CheckQuantileAgreement(samples);
  }
}

TEST(TelemetryHistogramTest, QuantilesMatchSortedSamplesHeavyTail) {
  util::SplitMix64 rng(0x7A11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> samples;
    const int n = 2 + static_cast<int>(rng.NextBounded(3000));
    for (int i = 0; i < n; ++i) {
      // Latency-like: mostly small with rare huge spikes.
      samples.push_back(rng.NextU64() >> (rng.NextBounded(52) + 8));
    }
    CheckQuantileAgreement(samples);
  }
}

TEST(TelemetryHistogramTest, QuantilesMatchSortedSamplesConstantAndTiny) {
  CheckQuantileAgreement({42});
  CheckQuantileAgreement({7, 7, 7, 7, 7, 7});
  CheckQuantileAgreement({0, 0, 0, 1});
  CheckQuantileAgreement({1000000, 1});
}

TEST(TelemetryHistogramTest, SummarizeMatchesUtilSummarize) {
  util::SplitMix64 rng(0xFACE);
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(50 + rng.NextBounded(9000));
  LatencyHistogram h;
  for (uint64_t v : samples) h.Record(v);
  const util::LatencySummary hist_s = h.TakeSnapshot().Summarize();
  std::vector<uint64_t> copy = samples;
  const util::LatencySummary exact_s = util::Summarize(copy);
  EXPECT_EQ(hist_s.count, exact_s.count);
  const double tol = LatencyHistogram::kRelativeError;
  EXPECT_NEAR(hist_s.min_ns, exact_s.min_ns, tol * exact_s.min_ns + 1);
  EXPECT_NEAR(hist_s.median_ns, exact_s.median_ns,
              tol * exact_s.median_ns + 1);
  EXPECT_NEAR(hist_s.p99_ns, exact_s.p99_ns, tol * exact_s.p99_ns + 1);
  EXPECT_NEAR(hist_s.max_ns, exact_s.max_ns, tol * exact_s.max_ns + 1);
  EXPECT_NEAR(hist_s.avg_ns, exact_s.avg_ns, 1e-6 * exact_s.avg_ns);
}

TEST(TelemetryHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  const Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.total(), 0u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Summarize().count, 0u);
}

// ---------------------------------------------------------------------
// Concurrency: recorded counts are conserved (TSan-checked in CI).
// ---------------------------------------------------------------------

TEST(TelemetryHistogramStressTest, ConcurrentRecordingConservesCount) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  LatencyHistogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      util::SplitMix64 rng(static_cast<uint64_t>(t) + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(rng.NextBounded(1 << 30));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.TotalCount(), kThreads * kPerThread);
  EXPECT_EQ(h.TakeSnapshot().total(), kThreads * kPerThread);
}

TEST(TelemetryHistogramStressTest, ConcurrentRecordAndMergeConserves) {
  // Recorders fill per-thread histograms while a collector repeatedly
  // reads their totals, then merges their snapshots — mirroring the
  // runtime's per-shard histogram + coordinator snapshot topology.
  constexpr int kShards = 4;
  constexpr uint64_t kPerShard = 40000;
  std::vector<LatencyHistogram> shard_hists(kShards);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (int t = 0; t < kShards; ++t) {
    threads.emplace_back([&shard_hists, t] {
      util::SplitMix64 rng(0x900D + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kPerShard; ++i) {
        shard_hists[static_cast<std::size_t>(t)].Record(
            rng.NextBounded(1 << 24));
      }
    });
  }
  // Live snapshots while recording: totals must only grow, never tear.
  uint64_t last_total = 0;
  for (int probe = 0; probe < 50; ++probe) {
    uint64_t total = 0;
    for (const LatencyHistogram& h : shard_hists) total += h.TotalCount();
    EXPECT_GE(total, last_total);
    EXPECT_LE(total, kShards * kPerShard);
    last_total = total;
  }
  for (auto& th : threads) th.join();
  Snapshot merged;
  for (const LatencyHistogram& h : shard_hists) merged.Merge(h.TakeSnapshot());
  EXPECT_EQ(merged.total(), kShards * kPerShard);
}

TEST(TelemetryCounterStressTest, ConcurrentCounterAddsConserve) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  ShardCounters c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.tuples_in.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.tuples_in.Get(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Counters, gauges, JSON.
// ---------------------------------------------------------------------

TEST(TelemetryCountersTest, CounterAndGaugeBasics) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Get(), 42u);
  c.Set(0);
  EXPECT_EQ(c.Get(), 0u);

  MaxGauge m;
  m.Observe(7);
  m.Observe(3);
  EXPECT_EQ(m.Get(), 7u);
  m.Observe(19);
  EXPECT_EQ(m.Get(), 19u);

  Gauge g;
  g.Set(5);
  g.Set(2);
  EXPECT_EQ(g.Get(), 2u);
}

TEST(TelemetryCountersTest, CountersAreCacheLinePadded) {
  EXPECT_EQ(alignof(Counter), kCacheLine);
  EXPECT_GE(sizeof(ShardCounters), 6 * kCacheLine);
}

TEST(TelemetryJsonTest, HistogramJsonHasSummaryAndBuckets) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(100);
  h.Record(5000);
  const std::string json = ToJson(h.TakeSnapshot());
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":5200"), std::string::npos) << json;
  EXPECT_NE(json.find("\"100\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
}

TEST(TelemetryJsonTest, RuntimeSnapshotJsonTotals) {
  RuntimeSnapshot r;
  ShardSnapshot s1;
  s1.tuples_in = 10;
  s1.tuples_out = 8;
  s1.in_flight = 2;
  ShardSnapshot s2;
  s2.tuples_in = 7;
  s2.tuples_out = 7;
  s2.dropped = 3;
  r.shards = {s1, s2};
  EXPECT_EQ(r.total_in(), 17u);
  EXPECT_EQ(r.total_out(), 15u);
  EXPECT_EQ(r.total_dropped(), 3u);
  EXPECT_EQ(r.total_in_flight(), 2u);
  const std::string json = ToJson(r);
  EXPECT_NE(json.find("\"total_in\":17"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\":[{"), std::string::npos) << json;
}

TEST(TelemetryRuntimeTest, ProducerBatchesAreASubsetOfBatches) {
  // Sparse producer-handle pushes on an unsupervised MPMC engine: shards
  // whose worker sleeps are drained on the producer's thread (DESIGN.md
  // §12.6), and each such batch is also one of the shard's `batches`.
  runtime::ParallelShardedEngine<core::SlickDequeInv<ops::SumInt>,
                                 runtime::MpmcRing>
      eng(8, 2, {.ring_capacity = 256, .batch = 4});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t producer_batches = 0;
  {
    auto producer = eng.MakeProducer();
    for (int round = 0; round < 10 || (producer_batches == 0 &&
                                       std::chrono::steady_clock::now() <
                                           deadline);
         ++round) {
      for (int64_t i = 0; i < 4; ++i) producer.push(i);
      producer.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      producer_batches = 0;
      for (const ShardSnapshot& s : eng.snapshot().shards) {
        producer_batches += s.producer_batches;
      }
    }
  }
  eng.stop();
  const RuntimeSnapshot snap = eng.snapshot();
  EXPECT_GT(producer_batches, 0u);
  for (const ShardSnapshot& s : snap.shards) {
    EXPECT_LE(s.producer_batches, s.batches);
    EXPECT_LE(s.producer_batches + s.coordinator_batches, s.batches);
  }
  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"producer_batches\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace slick::telemetry
