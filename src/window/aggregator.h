#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "ops/traits.h"

namespace slick::window {

// The library exposes two aggregator shapes, mirroring how the paper's
// algorithms are defined:
//
// * FifoAggregator — a dynamically sized FIFO window: insert() appends the
//   newest partial, evict() removes the oldest, query() aggregates the whole
//   current content in stream order. TwoStacks, DABA, SlickDeque
//   (Non-Inv)'s FIFO face and the subtract-on-evict aggregator have this
//   shape.
//
// * FixedWindowAggregator — a window of fixed length `window_size()` that is
//   conceptually always full (initialized with ⊕'s identity, as in the
//   paper's Algorithms 1 and 2): slide() writes the newest partial over the
//   expiring one; query(r) answers any range 1..window_size() ending at the
//   newest partial, enabling multi-query processing. Naive, FlatFAT, B-Int,
//   FlatFIT and both SlickDeque variants have this shape.

template <typename A>
concept FifoAggregator =
    ops::AggregateOp<typename A::op_type> &&
    requires(A agg, typename A::value_type v) {
      agg.insert(v);
      agg.evict();
      { agg.query() } -> std::same_as<typename A::result_type>;
      { agg.size() } -> std::convertible_to<std::size_t>;
      { agg.memory_bytes() } -> std::convertible_to<std::size_t>;
    };

template <typename A>
concept FixedWindowAggregator =
    ops::AggregateOp<typename A::op_type> &&
    requires(A agg, typename A::value_type v, std::size_t r) {
      agg.slide(v);
      { agg.query() } -> std::same_as<typename A::result_type>;
      { agg.query(r) } -> std::same_as<typename A::result_type>;
      { agg.window_size() } -> std::convertible_to<std::size_t>;
      { agg.memory_bytes() } -> std::convertible_to<std::size_t>;
    };

// ---------------------------------------------------------------------------
// Batch ingestion (DESIGN.md §11). Aggregators with an algorithm-specific
// fast path expose member bulk entry points:
//
//   BulkInsert(const value_type*, size_t) / BulkEvict(size_t)  (FIFO shape)
//   BulkSlide(const value_type*, size_t)                (fixed-window shape)
//
// contracted to leave the aggregator in a state that answers every
// supported query exactly as the equivalent per-tuple sequence would. The
// free functions below dispatch to the member when present and otherwise
// run the per-tuple loop, so every aggregator — including user-supplied
// implementations — accepts batches.

// * OutOfOrderAggregator — the third shape (DESIGN.md §13): a TIMESTAMPED
//   window for event-time streams. Insert(t, v) lands at any position,
//   BulkInsert takes a span of Timed slots, BulkEvict(w) drops everything
//   older than the watermark cutoff, and query() aggregates the content in
//   time order. OooTree has this shape; the parallel runtime switches a
//   shard into event-time mode when its aggregator satisfies this concept.

template <typename A>
concept OutOfOrderAggregator =
    ops::AggregateOp<typename A::op_type> &&
    requires(A agg, const A cagg, uint64_t t, typename A::value_type v,
             const typename A::timed_type* span, std::size_t n) {
      agg.Insert(t, v);
      agg.BulkInsert(span, n);
      { agg.BulkEvict(t) } -> std::convertible_to<std::size_t>;
      { cagg.query() } -> std::same_as<typename A::result_type>;
      { cagg.empty() } -> std::convertible_to<bool>;
      { cagg.newest() } -> std::convertible_to<uint64_t>;
    };

template <typename A>
concept BulkFifoAggregator =
    FifoAggregator<A> &&
    requires(A agg, const typename A::value_type* src, std::size_t n) {
      agg.BulkInsert(src, n);
      agg.BulkEvict(n);
    };

template <typename A>
concept BulkFixedWindowAggregator =
    FixedWindowAggregator<A> &&
    requires(A agg, const typename A::value_type* src, std::size_t n) {
      agg.BulkSlide(src, n);
    };

/// Appends `n` contiguous partials to a FIFO window in stream order.
template <FifoAggregator A>
void BulkInsert(A& agg, const typename A::value_type* src, std::size_t n) {
  if constexpr (BulkFifoAggregator<A>) {
    agg.BulkInsert(src, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) agg.insert(src[i]);
  }
}

/// Removes the `n` oldest elements from a FIFO window.
template <FifoAggregator A>
void BulkEvict(A& agg, std::size_t n) {
  if constexpr (BulkFifoAggregator<A>) {
    agg.BulkEvict(n);
  } else {
    for (std::size_t i = 0; i < n; ++i) agg.evict();
  }
}

/// Slides `n` contiguous partials through a fixed window in stream order.
template <FixedWindowAggregator A>
void BulkSlide(A& agg, const typename A::value_type* src, std::size_t n) {
  if constexpr (BulkFixedWindowAggregator<A>) {
    agg.BulkSlide(src, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) agg.slide(src[i]);
  }
}

}  // namespace slick::window

