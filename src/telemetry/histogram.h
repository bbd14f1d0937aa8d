#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/counters.h"
#include "util/stats.h"

namespace slick::telemetry {

/// Fixed-size log-bucketed latency histogram (HDR-style): the value range
/// [0, 2^64) is covered by octaves, each split into kSubBuckets = 2^6
/// power-of-two sub-buckets, so any recorded value lands in a bucket whose
/// width is at most value / 64 — a guaranteed relative error of
/// 2^-kSubBucketBits ≈ 1.6% per estimate, independent of the distribution.
/// Values below 128 are bucketed exactly (width-1 buckets).
///
/// Record() is wait-free: one relaxed fetch_add into the bucket array plus
/// one into the running sum — no CAS loops, no locks, no allocation — so
/// worker threads can record on the hot path while a coordinator snapshots
/// concurrently. Min/max are derived from the lowest/highest non-empty
/// bucket (same bucket-relative error), which is what keeps recording free
/// of retry loops.
///
/// Unlike the bench-side LatencyRecorder (which stores every sample and
/// sorts at the end), memory is constant: kBucketCount buckets ≈ 30 KiB,
/// regardless of how many samples are recorded. MergeFrom() folds another
/// histogram in (associative + commutative on the underlying counts), which
/// is how per-shard histograms become one engine-wide distribution.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBucketBits = 6;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  /// Octave 0 (values < 2^(kSubBucketBits+1)) uses 2*kSubBuckets exact
  /// buckets; each of the remaining 64 - (kSubBucketBits+1) octaves adds
  /// kSubBuckets more: (64 - kSubBucketBits + 1) * kSubBuckets total.
  static constexpr std::size_t kBucketCount =
      (64 - kSubBucketBits + 1) * kSubBuckets;  // 3776 buckets ≈ 29.5 KiB
  /// Documented per-estimate relative error bound (one bucket's width
  /// relative to its lower bound).
  static constexpr double kRelativeError =
      1.0 / static_cast<double>(kSubBuckets);

  LatencyHistogram()
      : buckets_(std::make_unique<std::atomic<uint64_t>[]>(kBucketCount)) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      // relaxed: pre-publication zeroing — no other thread can hold a
      // reference to a histogram still under construction.
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Maps a value to its bucket index. Exact for v < 2*kSubBuckets; above
  /// that the top kSubBucketBits+1 significant bits select the bucket.
  static std::size_t BucketIndex(uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);
    const uint32_t exp = 63u - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t shift = exp - kSubBucketBits;
    return static_cast<std::size_t>(shift * kSubBuckets + (v >> shift));
  }

  /// Inclusive [lower, upper] value range covered by bucket `i`.
  static uint64_t BucketLower(std::size_t i) {
    if (i < 2 * kSubBuckets) return static_cast<uint64_t>(i);
    const uint64_t shift = i / kSubBuckets - 1;
    return (static_cast<uint64_t>(i) - shift * kSubBuckets) << shift;
  }
  static uint64_t BucketUpper(std::size_t i) {
    if (i < 2 * kSubBuckets) return static_cast<uint64_t>(i);
    const uint64_t shift = i / kSubBuckets - 1;
    return BucketLower(i) + ((uint64_t{1} << shift) - 1);
  }

  /// Wait-free, thread-safe: two relaxed fetch_adds.
  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Folds `other`'s counts into this histogram. Safe against concurrent
  /// Record() on either side (counts are transferred with relaxed atomics;
  /// a sample is never lost, though a racing snapshot may see it in
  /// transit).
  void MergeFrom(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }

  /// Drops every recorded sample (not linearizable against concurrent
  /// Record; quiesce first if exact conservation matters). relaxed stores:
  /// counts are pure data, nothing is published through them.
  void Reset() {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }

  uint64_t TotalCount() const {
    // relaxed: statistical read — a racing Record() may or may not be
    // counted, which any live-telemetry reader already tolerates.
    uint64_t n = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      n += buckets_[i].load(std::memory_order_relaxed);
    }
    return n;
  }

  struct Snapshot;
  Snapshot TakeSnapshot() const;

  std::size_t memory_bytes() const {
    return sizeof(*this) + kBucketCount * sizeof(std::atomic<uint64_t>);
  }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  // Every Record() hits sum_; its own cache line keeps that fetch_add from
  // false-sharing with whatever neighbors the enclosing object packs next
  // to the histogram.
  alignas(kCacheLine) std::atomic<uint64_t> sum_{0};
};

/// A plain (non-atomic) copy of a histogram's state: what exporters,
/// quantile queries and the property tests operate on. Merge() over
/// snapshots is exactly element-wise addition, hence associative and
/// commutative — the property the tests pin down.
struct LatencyHistogram::Snapshot {
  std::vector<uint64_t> counts;  // kBucketCount entries
  uint64_t sum = 0;

  uint64_t total() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }

  /// Snapshot{} (no buckets) is the identity on either side.
  void Merge(const Snapshot& other) {
    if (counts.size() < other.counts.size()) {
      counts.resize(other.counts.size());
    }
    for (std::size_t i = 0; i < other.counts.size(); ++i) {
      counts[i] += other.counts[i];
    }
    sum += other.sum;
  }

  /// Representative value of bucket `i`: the midpoint of its range, which
  /// halves the worst-case estimate error vs. either bound.
  static double BucketValue(std::size_t i) {
    return 0.5 * (static_cast<double>(BucketLower(i)) +
                  static_cast<double>(BucketUpper(i)));
  }

  /// Nearest-rank quantile estimate, q in [0, 1]: the representative value
  /// of the bucket containing order statistic round(q * (n - 1)). Matches
  /// util::PercentileSorted's rank convention up to interpolation; the
  /// estimate is within kRelativeError of the true order statistic.
  /// Returns 0 for an empty histogram.
  double Quantile(double q) const {
    const uint64_t n = total();
    if (n == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const auto rank = static_cast<uint64_t>(
        q * static_cast<double>(n - 1) + 0.5);  // nearest rank, 0-based
    uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      seen += counts[i];
      if (seen > rank) return BucketValue(i);
    }
    return MaxEstimate();
  }

  double MinEstimate() const {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 0) return BucketValue(i);
    }
    return 0.0;
  }

  double MaxEstimate() const {
    for (std::size_t i = counts.size(); i-- > 0;) {
      if (counts[i] != 0) return BucketValue(i);
    }
    return 0.0;
  }

  /// The exact mean (the sum is tracked exactly, not bucketed).
  double Mean() const {
    const uint64_t n = total();
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }

  /// The paper's Exp-3 report (min/p25/median/p75/p99/p99.9/max/avg) from
  /// bucket counts alone — same shape as util::Summarize but O(buckets)
  /// memory and no sample storage.
  util::LatencySummary Summarize() const {
    util::LatencySummary s;
    s.count = total();
    if (s.count == 0) return s;
    s.min_ns = MinEstimate();
    s.p25_ns = Quantile(0.25);
    s.median_ns = Quantile(0.50);
    s.p75_ns = Quantile(0.75);
    s.p99_ns = Quantile(0.99);
    s.p999_ns = Quantile(0.999);
    s.max_ns = MaxEstimate();
    s.avg_ns = Mean();
    return s;
  }
};

inline LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  // relaxed: same statistical-read contract as TotalCount() — snapshots
  // race benignly with Record(); a sample lands in this snapshot or the
  // next, never torn and never lost from the histogram itself.
  Snapshot s;
  s.counts.resize(kBucketCount);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace slick::telemetry

