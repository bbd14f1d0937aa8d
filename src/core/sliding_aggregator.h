#pragma once

#include <concepts>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "core/windowed.h"
#include "ops/traits.h"
#include "window/daba.h"
#include "window/ooo_tree.h"

namespace slick::core {

/// Arrival-order capability (DESIGN.md §13). In-order streams (the paper's
/// §3.1 assumption) run on the SlickDeque family picked below; queries
/// declaring event-time semantics — timestamps may arrive out of order —
/// select kOutOfOrder and run on the finger-B-tree final aggregator, which
/// needs only associativity and supports watermark-driven bulk eviction.
enum class Arrival { kInOrder, kOutOfOrder };

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

template <ops::AggregateOp Op, Arrival A>
struct ArrivalPicker {
  using type = typename FifoPicker<Op>::type;
};

template <ops::AggregateOp Op>
struct ArrivalPicker<Op, Arrival::kOutOfOrder> {
  using type = window::OooTree<Op>;
};

}  // namespace internal

/// Best dynamically sized FIFO aggregator for Op (insert/evict/query).
template <ops::AggregateOp Op>
using FifoAggregatorFor = typename internal::FifoPicker<Op>::type;

/// Best fixed-window aggregator for Op (slide/query).
template <ops::AggregateOp Op>
using WindowAggregatorFor = typename internal::WindowPicker<Op>::type;

/// Best timestamped out-of-order final aggregator for Op. There is one
/// algorithm for every op class here: the OoO tree never uses inverse(),
/// so invertible, selective, and plain associative ops all run on it.
template <ops::AggregateOp Op>
using OooAggregatorFor = window::OooTree<Op>;

/// Arrival-dispatching alias: FifoAggregatorFor when the stream is
/// in-order, OooAggregatorFor when the query declares event time.
template <ops::AggregateOp Op, Arrival A = Arrival::kInOrder>
using ArrivalAggregatorFor = typename internal::ArrivalPicker<Op, A>::type;

// Batch entry points (DESIGN.md §11). These are the window:: dispatchers:
// aggregators with native Bulk* members take their algorithm-specific fast
// path, everything else falls back to the per-tuple loop — callers never
// need to know which.
using window::BulkEvict;
using window::BulkInsert;
using window::BulkSlide;

}  // namespace slick::core

