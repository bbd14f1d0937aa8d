#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "plan/shared_plan.h"
#include "telemetry/sink.h"
#include "util/check.h"
#include "util/clock.h"
#include "window/aggregator.h"

namespace slick::engine {

/// End-to-end Aggregate Continuous Query processor: registers a set of
/// compatible ACQs, builds their shared execution plan (paper §2.3),
/// partial-aggregates the raw stream along the plan's edges, feeds each
/// completed partial to the final aggregator `Agg`, and emits every due
/// query answer.
///
/// `Agg` is any fixed-window aggregator (Naive, FlatFAT, B-Int, FlatFIT,
/// SlickDeque (Inv)/(Non-Inv), or Windowed<...> for single-query plans).
/// Answers during warm-up treat not-yet-seen history as ⊕'s identity,
/// matching the paper's identity-initialized window (Algorithms 1 and 2).
///
/// `Tel` selects the telemetry sink at compile time (telemetry/sink.h).
/// The default NullEngineSink compiles every hook away, so the
/// uninstrumented engine is bit-identical to the pre-telemetry hot loop;
/// HistogramEngineSink additionally brackets each Push with clock reads
/// and records per-push latency into a wait-free log histogram.
template <typename Agg, typename Tel = telemetry::NullEngineSink>
class AcqEngine {
 public:
  using op_type = typename Agg::op_type;
  using input_type = typename op_type::input_type;
  using value_type = typename op_type::value_type;
  using result_type = typename op_type::result_type;

  /// Builds the shared plan for `queries` under `pat`. The engine starts
  /// at a composite-slide boundary: the first pushed tuple opens the plan's
  /// first partial, so every query's slide phase is aligned with it.
  AcqEngine(std::vector<plan::QuerySpec> queries, plan::Pat pat)
      : plan_(plan::SharedPlan::Build(queries, pat)),
        agg_(MakeAggregator(plan_)) {
    // Pre-compute each step's ranges in descending order for aggregators
    // with a fused multi-answer path (SlickDeque (Non-Inv)).
    step_ranges_.reserve(plan_.steps().size());
    for (const plan::PlanStep& step : plan_.steps()) {
      std::vector<std::size_t> ranges;
      ranges.reserve(step.reports.size());
      for (const plan::ReportEntry& r : step.reports) {
        ranges.push_back(static_cast<std::size_t>(r.range_in_partials));
      }
      step_ranges_.push_back(std::move(ranges));
    }
  }

  /// Feeds one raw stream element. For every answer that becomes due,
  /// calls sink(query_index, result).
  template <typename Sink>
  void Push(const input_type& x, Sink&& sink) {
    uint64_t t0 = 0;
    if constexpr (Tel::kLatency) t0 = util::MonotonicNanos();
    tel_.OnTuple();
    const plan::PlanStep& step = plan_.steps()[step_idx_];
    partial_ = in_partial_ == 0
                   ? op_type::lift(x)
                   : op_type::combine(partial_, op_type::lift(x));
    ++tuples_;
    if (++in_partial_ >= step.partial_len) {
      agg_.slide(std::move(partial_));
      tel_.OnPartial();
      in_partial_ = 0;
      EmitAnswers(step, sink);
      step_idx_ = step_idx_ + 1 == plan_.steps().size() ? 0 : step_idx_ + 1;
    }
    if constexpr (Tel::kLatency) tel_.OnLatency(util::MonotonicNanos() - t0);
  }

  const plan::SharedPlan& plan() const { return plan_; }
  const Agg& aggregator() const { return agg_; }
  /// Mutable access for state restoration (checkpoint recovery).
  Agg& mutable_aggregator() { return agg_; }
  uint64_t tuples_processed() const { return tuples_; }
  uint64_t answers_produced() const { return answers_; }

  /// The compile-time-selected telemetry sink (counters/histogram live
  /// here when Tel is not the null sink).
  const Tel& telemetry() const { return tel_; }
  Tel& telemetry() { return tel_; }

  std::size_t memory_bytes() const { return sizeof(*this) + agg_.memory_bytes(); }

 private:
  static Agg MakeAggregator(const plan::SharedPlan& plan) {
    SLICK_CHECK(plan.executable(),
                "plan has mid-partial ranges and cannot drive execution");
    const auto window = static_cast<std::size_t>(plan.window_partials());
    if constexpr (std::is_constructible_v<Agg, std::size_t,
                                          std::vector<std::size_t>>) {
      // SlickDeque (Inv and Non-Inv): register every distinct range up
      // front (the Preparation phase's answers map).
      std::vector<std::size_t> ranges;
      ranges.reserve(plan.distinct_ranges().size());
      for (uint64_t r : plan.distinct_ranges()) {
        ranges.push_back(static_cast<std::size_t>(r));
      }
      return Agg(window, std::move(ranges));
    } else {
      return Agg(window);
    }
  }

  template <typename Sink>
  void EmitAnswers(const plan::PlanStep& step, Sink& sink) {
    if (step.reports.empty()) return;
    if constexpr (requires(std::vector<result_type>& out) {
                    agg_.query_multi(step_ranges_[0], out);
                  }) {
      multi_out_.clear();
      agg_.query_multi(step_ranges_[step_idx_], multi_out_);
      for (std::size_t i = 0; i < step.reports.size(); ++i) {
        sink(step.reports[i].query, multi_out_[i]);
        ++answers_;
      }
      tel_.OnAnswer(step.reports.size());
    } else {
      for (const plan::ReportEntry& r : step.reports) {
        sink(r.query,
             agg_.query(static_cast<std::size_t>(r.range_in_partials)));
        ++answers_;
      }
      tel_.OnAnswer(step.reports.size());
    }
  }

  plan::SharedPlan plan_;
  Agg agg_;
  [[no_unique_address]] Tel tel_;
  std::vector<std::vector<std::size_t>> step_ranges_;  // descending, per step
  std::vector<result_type> multi_out_;
  value_type partial_ = op_type::identity();
  uint64_t in_partial_ = 0;
  std::size_t step_idx_ = 0;
  uint64_t tuples_ = 0;
  uint64_t answers_ = 0;
};

}  // namespace slick::engine

