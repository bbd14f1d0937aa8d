#pragma once

// The workload input and the independent reference every answer is
// checked against.
//
// The input is one energy channel of stream::SyntheticSensorSource(seed),
// scaled by 1000 and rounded, so every value is an integer-valued double
// in [100, ~200000]. Any window sum then stays far below 2^53 and is
// exact in every summation order, which makes Sum answers checkable bit
// for bit against integer prefix sums. The series is materialized once
// (kPeriod values) and the stream cycles through it: the tuple at stream
// position i has value values()[i % kPeriod].

#include <cstdint>
#include <map>
#include <vector>

namespace slickbench {

class Reference {
 public:
  /// A multiple of every query slide (1, 10, 100, 1000) and longer than
  /// the largest range (360000), so closed-form checksums stay exact.
  static constexpr uint64_t kPeriod = 1'024'000;

  explicit Reference(uint64_t seed);

  const std::vector<double>& values() const { return x_; }
  double At(uint64_t i) const { return x_[i % kPeriod]; }

  /// Sum of stream positions [n − range, n); requires n >= range.
  uint64_t WindowSum(uint64_t n, uint64_t range) const {
    return Prefix(n) - Prefix(n - range);
  }
  /// Max of stream positions [n − range, n) by rescanning them.
  double WindowMax(uint64_t n, uint64_t range) const;

  /// Sum, modulo 2^64, of the answers of query (range, slide) due at every
  /// position n = k·slide with n0 < n <= n1 — what an engine's per-query
  /// answer checksum must equal. Requires n0 >= range and slide | range.
  /// O(1) after Prepare(slide).
  void Prepare(uint64_t slide);
  uint64_t AnswerSum(uint64_t range, uint64_t slide, uint64_t n0,
                     uint64_t n1) const;

 private:
  /// Sum of stream positions [0, n), modulo 2^64.
  uint64_t Prefix(uint64_t n) const {
    return (n / kPeriod) * total_ + prefix_[n % kPeriod];
  }
  /// Σ_{j=0..k} Prefix(j·slide), modulo 2^64.
  uint64_t StridedPrefixSum(uint64_t slide, uint64_t k) const;

  std::vector<double> x_;
  std::vector<uint64_t> prefix_;  // prefix_[j] = Σ x[0, j), j < kPeriod
  uint64_t total_ = 0;            // Σ x over one period
  // strided_[s][i] = Σ_{i' <= i} prefix_[i'·s], for i < kPeriod / s.
  std::map<uint64_t, std::vector<uint64_t>> strided_;
};

}  // namespace slickbench
