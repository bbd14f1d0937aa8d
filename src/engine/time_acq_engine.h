#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/sliding_aggregator.h"
#include "engine/acq_engine.h"
#include "ops/traits.h"
#include "plan/query_spec.h"
#include "telemetry/sink.h"
#include "util/check.h"

namespace slick::engine {

/// A time-based ACQ: range and slide in timestamp units (the paper's §1:
/// windows "can be either count or time-based").
struct TimeQuerySpec {
  uint64_t range = 1;
  uint64_t slide = 1;
};

/// Pass-through wrapper: the same algebra as Op but consuming ALREADY
/// LIFTED partials (lift is the identity). The time engine pre-aggregates
/// each pane with the raw op and feeds pane partials to a count-based
/// engine instantiated over Prelifted<Op>, so values are lifted exactly
/// once however non-trivial Op::lift is (Count, SumOfSquares, Average...).
template <ops::AggregateOp Op>
struct Prelifted {
  using input_type = typename Op::value_type;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  static constexpr const char* kName = Op::kName;
  static constexpr bool kInvertible = Op::kInvertible;
  static constexpr bool kCommutative = Op::kCommutative;
  static constexpr bool kSelective = Op::kSelective;

  static value_type identity() { return Op::identity(); }
  static value_type lift(input_type x) { return x; }
  static value_type combine(const value_type& a, const value_type& b) {
    return Op::combine(a, b);
  }
  static value_type inverse(const value_type& a, const value_type& b)
    requires ops::InvertibleOp<Op>
  {
    return Op::inverse(a, b);
  }
  static bool absorbs(const value_type& newer, const value_type& older)
    requires ops::SelectiveOp<Op>
  {
    return ops::Absorbs<Op>(newer, older);
  }
  static result_type lower(const value_type& a) { return Op::lower(a); }
};

/// Multi-ACQ processing for TIME-based windows, by reduction to the
/// count-based machinery: the timeline is cut into panes of
/// g = gcd(all ranges, all slides) time units (the Panes PAT applied to
/// time, §2.1), each pane's tuples are pre-aggregated into one partial —
/// including *empty* panes, which contribute ⊕'s identity — and the pane
/// stream drives an ordinary AcqEngine with count-based specs of
/// (range/g, slide/g) panes. Every shared-plan/SlickDeque property carries
/// over unchanged; bursts and gaps in the timeline are absorbed by the
/// pane pre-aggregation.
///
/// `RawOp` is the user-facing operation; `Agg` must be a fixed-window
/// aggregator over Prelifted<RawOp> (use the TimeEngineFor alias to get
/// the facade-selected one). Timestamps must be non-decreasing (put a
/// stream::ReorderBuffer upstream otherwise). Pane k covers
/// [k·g, (k+1)·g); a query with slide s answers at every boundary t = m·s
/// over the window [t - range, t) — half-open at the top: an element
/// stamped exactly t belongs to the next window, the standard pane/
/// tumbling-boundary convention.
///
/// `Tel` is the compile-time telemetry sink (telemetry/sink.h; the default
/// null sink costs nothing). The time engine reports pane-level flow —
/// panes closed, empty (gap) panes, and the watermark (the end timestamp
/// of the newest closed pane) — plus tuple/answer counts.
template <ops::AggregateOp RawOp, typename Agg,
          typename Tel = telemetry::NullEngineSink>
class TimeAcqEngine {
  static_assert(std::is_same_v<typename Agg::op_type, Prelifted<RawOp>>,
                "instantiate the aggregator over Prelifted<RawOp>");

 public:
  using input_type = typename RawOp::input_type;
  using value_type = typename RawOp::value_type;
  using result_type = typename RawOp::result_type;

  TimeAcqEngine(std::vector<TimeQuerySpec> queries, plan::Pat pat)
      : pane_(PaneLength(queries)),
        engine_(CountSpecs(queries, pane_), pat) {}

  /// Feeds one element observed at `ts` (non-decreasing). Answers that
  /// became due at pane boundaries <= ts are emitted first, via
  /// sink(query_index, result).
  template <typename Sink>
  void Observe(uint64_t ts, const input_type& x, Sink&& sink) {
    SLICK_CHECK(ts >= now_, "timestamps must be non-decreasing");
    tel_.OnTuple();
    ClosePanesThrough(ts, sink);
    now_ = ts;
    pane_acc_ = have_acc_ ? RawOp::combine(pane_acc_, RawOp::lift(x))
                          : RawOp::lift(x);
    have_acc_ = true;
  }

  /// Advances time without an element (timer tick / punctuation), flushing
  /// every answer due up to `ts`'s pane boundary.
  template <typename Sink>
  void AdvanceTo(uint64_t ts, Sink&& sink) {
    SLICK_CHECK(ts >= now_, "timestamps must be non-decreasing");
    ClosePanesThrough(ts, sink);
    now_ = ts;
  }

  uint64_t pane_length() const { return pane_; }
  const plan::SharedPlan& plan() const { return engine_.plan(); }
  std::size_t memory_bytes() const { return engine_.memory_bytes(); }

  /// The compile-time-selected telemetry sink. Watermark lag at any moment
  /// is `now - telemetry().counters.watermark` (time units): how far the
  /// open pane trails the newest observed timestamp.
  const Tel& telemetry() const { return tel_; }
  Tel& telemetry() { return tel_; }

 private:
  static uint64_t PaneLength(const std::vector<TimeQuerySpec>& queries) {
    SLICK_CHECK(!queries.empty(), "need at least one query");
    uint64_t g = 0;
    for (const TimeQuerySpec& q : queries) {
      SLICK_CHECK(q.range >= 1 && q.slide >= 1, "range/slide must be >= 1");
      g = std::gcd(g, std::gcd(q.range, q.slide));
    }
    return g;
  }

  static std::vector<plan::QuerySpec> CountSpecs(
      const std::vector<TimeQuerySpec>& queries, uint64_t pane) {
    std::vector<plan::QuerySpec> specs;
    specs.reserve(queries.size());
    for (const TimeQuerySpec& q : queries) {
      specs.push_back({q.range / pane, q.slide / pane});
    }
    return specs;
  }

  /// Closes every pane whose end lies at or before `ts`: the pane's
  /// aggregate (identity when empty) becomes one "tuple" of the
  /// count-based engine.
  template <typename Sink>
  void ClosePanesThrough(uint64_t ts, Sink& sink) {
    const uint64_t target_pane = ts / pane_;
    while (open_pane_ < target_pane) {
      auto counted = [&](uint32_t q, const result_type& r) {
        tel_.OnAnswer();
        sink(q, r);
      };
      engine_.Push(have_acc_ ? pane_acc_ : RawOp::identity(), counted);
      tel_.OnPaneClose(!have_acc_, (open_pane_ + 1) * pane_);
      have_acc_ = false;
      ++open_pane_;
    }
  }

  uint64_t pane_;
  AcqEngine<Agg> engine_;
  [[no_unique_address]] Tel tel_;
  uint64_t now_ = 0;
  uint64_t open_pane_ = 0;  // index of the currently accumulating pane
  value_type pane_acc_ = RawOp::identity();
  bool have_acc_ = false;
};

/// The facade-selected time engine for RawOp (SlickDeque (Inv) for
/// invertible ops, SlickDeque (Non-Inv) for selective ones, DABA
/// otherwise). Optionally pass a telemetry sink as the second argument.
template <ops::AggregateOp RawOp, typename Tel = telemetry::NullEngineSink>
using TimeEngineFor =
    TimeAcqEngine<RawOp, core::WindowAggregatorFor<Prelifted<RawOp>>, Tel>;

}  // namespace slick::engine

