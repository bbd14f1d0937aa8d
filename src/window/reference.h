#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "ops/traits.h"
#include "util/check.h"

namespace slick::window {

// slick-lint: allow(test-only-module) -- the brute-force oracle the tests
// compare every real algorithm against.

/// Brute-force oracle: stores every partial and folds the requested span in
/// stream order on each query. O(n) per query, obviously correct — it exists
/// solely so tests can validate every real algorithm (including on
/// non-commutative and non-invertible operations).
template <ops::AggregateOp Op>
class ReferenceAggregator {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  void insert(value_type v) { values_.push_back(std::move(v)); }

  void evict() {
    SLICK_CHECK(!values_.empty(), "evict from empty reference window");
    values_.pop_front();
  }

  /// Aggregate of the entire window, in stream order.
  result_type query() const { return query_last(values_.size()); }

  /// Aggregate of the newest `range` elements, in stream order.
  result_type query_last(std::size_t range) const {
    SLICK_CHECK(range <= values_.size(), "range exceeds window content");
    value_type acc = Op::identity();
    for (std::size_t i = values_.size() - range; i < values_.size(); ++i) {
      acc = Op::combine(acc, values_[i]);
    }
    return Op::lower(acc);
  }

  std::size_t size() const { return values_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + values_.size() * sizeof(value_type);
  }

 private:
  std::deque<value_type> values_;
};

}  // namespace slick::window

