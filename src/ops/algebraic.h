#pragma once

#include <cmath>
#include <cstdint>

namespace slick::ops {

// Algebraic aggregations (paper §3.1) are computed from a bounded number of
// distributive aggregations. We carry the distributive components together
// in one struct-valued partial, so every algorithm in the library handles
// them unchanged; lower() performs the final algebraic step. Because every
// component below is invertible, these ops are invertible too and run on the
// SlickDeque (Inv) fast path.
//
// Range (Max and Min) is the one paper-listed algebraic aggregation whose
// components are non-invertible; it is provided as `core::RangeAggregator`
// (two SlickDeque (Non-Inv) instances) rather than as a single op, since a
// fused {max,min} partial would be neither invertible nor selective.

/// Carries (count, sum) to compute the mean.
struct AvgPartial {
  int64_t count = 0;
  double sum = 0.0;

  friend bool operator==(const AvgPartial&, const AvgPartial&) = default;
};

/// Average = Sum / Count (paper: "Average (Count and Sum)").
struct Average {
  using input_type = double;
  using value_type = AvgPartial;
  using result_type = double;

  static constexpr const char* kName = "average";
  static constexpr bool kInvertible = true;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return AvgPartial{}; }
  static value_type lift(input_type x) { return AvgPartial{1, x}; }
  static value_type combine(value_type a, value_type b) {
    return AvgPartial{a.count + b.count, a.sum + b.sum};
  }
  static value_type inverse(value_type a, value_type b) {
    return AvgPartial{a.count - b.count, a.sum - b.sum};
  }
  static result_type lower(value_type a) {
    return a.count == 0 ? 0.0 : a.sum / static_cast<double>(a.count);
  }
};

/// Like Average, but lower() hands back the raw (count, sum) partial, so
/// the paper's §2.3 example of *different but compatible* operations —
/// Sum, Count and Average queries over the same stream — can all project
/// from this one aggregation.
struct SumCount {
  using input_type = double;
  using value_type = AvgPartial;
  using result_type = AvgPartial;

  static constexpr const char* kName = "sum_count";
  static constexpr bool kInvertible = true;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return AvgPartial{}; }
  static value_type lift(input_type x) { return AvgPartial{1, x}; }
  static value_type combine(value_type a, value_type b) {
    return AvgPartial{a.count + b.count, a.sum + b.sum};
  }
  static value_type inverse(value_type a, value_type b) {
    return AvgPartial{a.count - b.count, a.sum - b.sum};
  }
  static result_type lower(value_type a) { return a; }
};

/// Carries (count, sum, sum of squares) for the standard deviation.
struct StdDevPartial {
  int64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  friend bool operator==(const StdDevPartial&, const StdDevPartial&) = default;
};

/// Population standard deviation (paper: "Standard Deviation (Sum of
/// Squares, Sum, and Count)").
struct StdDev {
  using input_type = double;
  using value_type = StdDevPartial;
  using result_type = double;

  static constexpr const char* kName = "std_dev";
  static constexpr bool kInvertible = true;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return StdDevPartial{}; }
  static value_type lift(input_type x) { return StdDevPartial{1, x, x * x}; }
  static value_type combine(value_type a, value_type b) {
    return StdDevPartial{a.count + b.count, a.sum + b.sum,
                         a.sum_sq + b.sum_sq};
  }
  static value_type inverse(value_type a, value_type b) {
    return StdDevPartial{a.count - b.count, a.sum - b.sum,
                         a.sum_sq - b.sum_sq};
  }
  static result_type lower(value_type a) {
    if (a.count == 0) return 0.0;
    const double n = static_cast<double>(a.count);
    const double mean = a.sum / n;
    const double variance = a.sum_sq / n - mean * mean;
    return variance <= 0.0 ? 0.0 : std::sqrt(variance);
  }
};

/// Carries (count, sum of logs) for the geometric mean. Using log-sums
/// instead of a running product keeps long windows away from overflow and
/// makes the inverse numerically stable; inputs must be positive.
struct GeoMeanPartial {
  int64_t count = 0;
  double log_sum = 0.0;

  friend bool operator==(const GeoMeanPartial&,
                         const GeoMeanPartial&) = default;
};

/// Geometric mean (paper: "Geometric Mean (Product and Count)").
struct GeoMean {
  using input_type = double;
  using value_type = GeoMeanPartial;
  using result_type = double;

  static constexpr const char* kName = "geo_mean";
  static constexpr bool kInvertible = true;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return GeoMeanPartial{}; }
  static value_type lift(input_type x) {
    return GeoMeanPartial{1, std::log(x)};
  }
  static value_type combine(value_type a, value_type b) {
    return GeoMeanPartial{a.count + b.count, a.log_sum + b.log_sum};
  }
  static value_type inverse(value_type a, value_type b) {
    return GeoMeanPartial{a.count - b.count, a.log_sum - b.log_sum};
  }
  static result_type lower(value_type a) {
    return a.count == 0 ? 0.0
                        : std::exp(a.log_sum / static_cast<double>(a.count));
  }
};

}  // namespace slick::ops

