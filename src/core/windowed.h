#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "util/check.h"
#include "window/aggregator.h"

namespace slick::core {

/// Adapts a dynamically sized FIFO aggregator (TwoStacks, DABA, ...) to the
/// fixed-window slide() interface the paper's evaluation drives: the window
/// is pre-filled with ⊕'s identity so it is always exactly `window` partials
/// long, and each slide() is an evict() followed by an insert().
///
/// Only the full-window answer is available — TwoStacks and DABA do not
/// support sub-range (multi-query) lookups, as the paper notes in §2.2.
template <window::FifoAggregator A>
class Windowed {
 public:
  using op_type = typename A::op_type;
  using value_type = typename A::value_type;
  using result_type = typename A::result_type;

  /// One bulk insert of `window` identities, so an aggregator with a
  /// native batch path (TwoStacks) sizes its storage exactly once.
  explicit Windowed(std::size_t window) : window_(window) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
    const std::vector<value_type> fill(window, op_type::identity());
    window::BulkInsert(impl_, fill.data(), window);
  }

  void slide(value_type v) {
    impl_.evict();
    impl_.insert(std::move(v));
  }

  /// Batch slide (DESIGN.md §11): one bulk evict followed by one bulk
  /// insert via the window:: dispatchers, so FIFO aggregators with native
  /// batch members (TwoStacks, SubtractOnEvict) amortize across the batch.
  /// The window content after the call matches n sequential slide()
  /// calls; internal stack/flip phase may differ from the interleaved
  /// order, which queries cannot observe.
  void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    if (n >= window_) {
      window::BulkEvict(impl_, window_);
      window::BulkInsert(impl_, src + (n - window_), window_);
    } else {
      window::BulkEvict(impl_, n);
      window::BulkInsert(impl_, src, n);
    }
  }

  result_type query() const { return impl_.query(); }

  result_type query(std::size_t range) const {
    SLICK_CHECK(range == window_,
                "this aggregator only answers the full-window range");
    return impl_.query();
  }

  std::size_t window_size() const { return window_; }

  std::size_t memory_bytes() const { return impl_.memory_bytes(); }

  A& impl() { return impl_; }
  const A& impl() const { return impl_; }

 private:
  A impl_;
  std::size_t window_;
};

}  // namespace slick::core

