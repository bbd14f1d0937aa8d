#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "engine/acq_engine.h"
#include "ops/algebraic.h"
#include "ops/minmax.h"
#include "ops/scan_kernels.h"
#include "plan/query_spec.h"
#include "util/check.h"

namespace slick::engine {

// Sharing across *different but compatible* aggregate operations
// (paper §2.3): "Sum, Count and Average can share results by treating
// Average as sum/count", and Range decomposes into Max and Min. These
// engines register mixed-operation ACQs on one (or two) shared
// aggregations and project each query's answer from the shared partial.

/// Operations served by the (count, sum) carrier.
enum class SumFamilyKind { kSum, kCount, kAverage };

struct SumFamilyQuery {
  plan::QuerySpec spec;
  SumFamilyKind kind = SumFamilyKind::kSum;
};

/// Sum / Count / Average ACQs over one stream, all answered from a single
/// SlickDeque (Inv) running (count, sum) aggregation — exactly one ⊕ and
/// one ⊖ per registered *range* per slide, however many of the three
/// operation kinds are registered.
class SharedSumFamilyEngine {
 public:
  SharedSumFamilyEngine(std::vector<SumFamilyQuery> queries, plan::Pat pat)
      : queries_(std::move(queries)), engine_(Specs(queries_), pat) {}

  /// Feeds one value; sink(query_index, double_answer) per due answer.
  template <typename Sink>
  void Push(double x, Sink&& sink) {
    engine_.Push(x, [&](uint32_t q, const ops::AvgPartial& partial) {
      sink(q, Project(queries_[q].kind, partial));
    });
  }

  const plan::SharedPlan& plan() const { return engine_.plan(); }
  uint64_t answers_produced() const { return engine_.answers_produced(); }
  std::size_t memory_bytes() const { return engine_.memory_bytes(); }

 private:
  static std::vector<plan::QuerySpec> Specs(
      const std::vector<SumFamilyQuery>& queries) {
    std::vector<plan::QuerySpec> specs;
    specs.reserve(queries.size());
    for (const SumFamilyQuery& q : queries) specs.push_back(q.spec);
    return specs;
  }

  static double Project(SumFamilyKind kind, const ops::AvgPartial& p) {
    switch (kind) {
      case SumFamilyKind::kSum:
        return p.sum;
      case SumFamilyKind::kCount:
        return static_cast<double>(p.count);
      case SumFamilyKind::kAverage:
        return p.count == 0 ? 0.0 : p.sum / static_cast<double>(p.count);
    }
    return 0.0;
  }

  std::vector<SumFamilyQuery> queries_;
  AcqEngine<core::SlickDequeInv<ops::SumCount>> engine_;
};

/// Operations served by the Max/Min deque pair.
enum class MinMaxFamilyKind { kMax, kMin, kRange };

struct MinMaxFamilyQuery {
  plan::QuerySpec spec;
  MinMaxFamilyKind kind = MinMaxFamilyKind::kMax;
};

/// Max / Min / Range ACQs over one stream, answered from two shared
/// SlickDeque (Non-Inv) instances (Range = Max - Min, §3.1). Queries that
/// only need one side still cost nothing extra: both deques are maintained
/// once per slide regardless.
class SharedMinMaxFamilyEngine {
 public:
  SharedMinMaxFamilyEngine(std::vector<MinMaxFamilyQuery> queries,
                           plan::Pat pat)
      : queries_(std::move(queries)),
        max_engine_(Specs(queries_), pat),
        min_engine_(Specs(queries_), pat) {
    for (const MinMaxFamilyQuery& q : queries_) {
      if (q.kind == MinMaxFamilyKind::kRange) has_range_ = true;
    }
  }

  template <typename Sink>
  void Push(double x, Sink&& sink) {
    // Drive both shared deques; pair up the per-query answers. Both
    // engines run the same plan, so answers arrive in the same order —
    // collected into parallel arrays (query ids once, one value column
    // per deque) so the Range projection runs as one vectorized
    // max - min pass over the due block instead of per-answer scalar
    // subtractions.
    due_q_.clear();
    max_vals_.clear();
    min_vals_.clear();
    max_engine_.Push(x, [&](uint32_t q, double a) {
      due_q_.push_back(q);
      max_vals_.push_back(a);
    });
    min_engine_.Push(x, [&]([[maybe_unused]] uint32_t q, double a) {
      SLICK_DCHECK(min_vals_.size() < due_q_.size() &&
                       q == due_q_[min_vals_.size()],
                   "shared plans diverged");
      min_vals_.push_back(a);
    });
    SLICK_DCHECK(max_vals_.size() == min_vals_.size(),
                 "shared plans diverged");
    const std::size_t n = due_q_.size();
    if (n == 0) return;
    if (has_range_) {
      range_vals_.resize(n);
      ops::kernels::SubtractArrays(max_vals_.data(), min_vals_.data(),
                                   range_vals_.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const uint32_t q = due_q_[i];
      switch (queries_[q].kind) {
        case MinMaxFamilyKind::kMax:
          sink(q, max_vals_[i]);
          break;
        case MinMaxFamilyKind::kMin:
          sink(q, min_vals_[i]);
          break;
        case MinMaxFamilyKind::kRange:
          sink(q, range_vals_[i]);
          break;
      }
    }
  }

  const plan::SharedPlan& plan() const { return max_engine_.plan(); }
  std::size_t memory_bytes() const {
    return max_engine_.memory_bytes() + min_engine_.memory_bytes();
  }

 private:
  static std::vector<plan::QuerySpec> Specs(
      const std::vector<MinMaxFamilyQuery>& queries) {
    std::vector<plan::QuerySpec> specs;
    specs.reserve(queries.size());
    for (const MinMaxFamilyQuery& q : queries) specs.push_back(q.spec);
    return specs;
  }

  std::vector<MinMaxFamilyQuery> queries_;
  AcqEngine<core::SlickDequeNonInv<ops::Max>> max_engine_;
  AcqEngine<core::SlickDequeNonInv<ops::Min>> min_engine_;
  bool has_range_ = false;
  // Per-Push due-answer block, SoA: query ids + one value column per deque
  // (+ the projected ranges when any Range query is registered).
  std::vector<uint32_t> due_q_;
  std::vector<double> max_vals_;
  std::vector<double> min_vals_;
  std::vector<double> range_vals_;
};

}  // namespace slick::engine

