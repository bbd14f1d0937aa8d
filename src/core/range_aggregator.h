#pragma once

#include <cstddef>
#include <vector>

#include "core/slick_deque_noninv.h"
#include "ops/minmax.h"
#include "ops/scan_kernels.h"

namespace slick::core {

/// Range = Max - Min (paper §3.1: "Range (Max and Min)"). The fused
/// {max,min} partial is neither invertible nor selective, so — exactly as
/// the paper prescribes for algebraic aggregations — it is computed from
/// its two distributive components, each running on its own SlickDeque
/// (Non-Inv).
class RangeAggregator {
 public:
  using value_type = double;
  using result_type = double;

  explicit RangeAggregator(std::size_t window) : max_(window), min_(window) {}

  /// Registers `ranges` with both component deques, so their answers take
  /// the per-range cursor path.
  RangeAggregator(std::size_t window, const std::vector<std::size_t>& ranges)
      : max_(window, ranges), min_(window, ranges) {}

  void slide(double v) {
    max_.slide(v);
    min_.slide(v);
  }

  double query() const { return max_.query() - min_.query(); }

  double query(std::size_t range) const {
    return max_.query(range) - min_.query(range);
  }

  /// Answers several ranges (sorted descending, as each component deque's
  /// query_multi requires) with one shared walk per deque, then projects
  /// max - min for the whole block through the vectorized SubtractArrays
  /// kernel. Results are appended to `out`.
  void query_multi(const std::vector<std::size_t>& ranges_desc,
                   std::vector<double>& out) const {
    const std::size_t n = ranges_desc.size();
    if (n == 0) return;
    max_scratch_.clear();
    min_scratch_.clear();
    max_.query_multi(ranges_desc, max_scratch_);
    min_.query_multi(ranges_desc, min_scratch_);
    const std::size_t base = out.size();
    out.resize(base + n);
    ops::kernels::SubtractArrays(max_scratch_.data(), min_scratch_.data(),
                                 out.data() + base, n);
  }

  std::size_t window_size() const { return max_.window_size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + max_.memory_bytes() + min_.memory_bytes() +
           (max_scratch_.capacity() + min_scratch_.capacity()) *
               sizeof(double);
  }

 private:
  SlickDequeNonInv<ops::Max> max_;
  SlickDequeNonInv<ops::Min> min_;
  // query_multi scratch; mutable so the const query surface keeps its
  // shape while reusing capacity across calls.
  mutable std::vector<double> max_scratch_;
  mutable std::vector<double> min_scratch_;
};

}  // namespace slick::core
