#pragma once

#include <concepts>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "core/windowed.h"
#include "ops/traits.h"
#include "window/daba.h"

namespace slick::core {

// The paper's headline idea as a user-facing API: pick the execution
// strategy from the operation's algebraic properties.
//
//   * invertible            -> SlickDeque (Inv) / Subtract-on-Evict
//   * selective (paper's
//     non-invertible class) -> SlickDeque (Non-Inv), fixed / FIFO face
//   * anything else
//     (associative only)    -> DABA, the best general-purpose algorithm
//
// `FifoAggregatorFor<Op>` names the dynamically sized FIFO implementation,
// `WindowAggregatorFor<Op>` the fixed-window (slide-based, multi-query
// capable) implementation. Both resolve at compile time — no virtual
// dispatch on the hot path.

namespace internal {

template <ops::AggregateOp Op>
struct FifoPicker {
  using type = window::Daba<Op>;
};

template <ops::InvertibleOp Op>
struct FifoPicker<Op> {
  using type = SubtractOnEvict<Op>;
};

template <ops::SelectiveOp Op>
  requires std::equality_comparable<typename Op::value_type> &&
           (!Op::kInvertible)
struct FifoPicker<Op> {
  using type = SlickDequeNonInv<Op>;
};

template <ops::AggregateOp Op>
struct WindowPicker {
  using type = Windowed<window::Daba<Op>>;
};

template <ops::InvertibleOp Op>
struct WindowPicker<Op> {
  using type = SlickDequeInv<Op>;
};

template <ops::SelectiveOp Op>
  requires std::equality_comparable<typename Op::value_type> &&
           (!Op::kInvertible)
struct WindowPicker<Op> {
  using type = SlickDequeNonInv<Op>;
};

}  // namespace internal

/// Best dynamically sized FIFO aggregator for Op (insert/evict/query).
template <ops::AggregateOp Op>
using FifoAggregatorFor = typename internal::FifoPicker<Op>::type;

/// Best fixed-window aggregator for Op (slide/query).
template <ops::AggregateOp Op>
using WindowAggregatorFor = typename internal::WindowPicker<Op>::type;

// Batch entry points (DESIGN.md §11). These are the window:: dispatchers:
// aggregators with native Bulk* members take their algorithm-specific fast
// path, everything else falls back to the per-tuple loop — callers never
// need to know which.
using window::BulkEvict;
using window::BulkInsert;
using window::BulkSlide;

}  // namespace slick::core

