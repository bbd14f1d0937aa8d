#pragma once

// Timed<Agg>: a forwarding FixedWindowAggregator that records a
// core.slide span around every slide and a core.answer span around every
// answer read while the calling thread is sampling, and counts every call.
// Each member exists only when Agg has it, so AcqEngine<Timed<Agg>>
// detects the same capabilities and takes the same code path as
// AcqEngine<Agg>.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace.h"
#include "window/aggregator.h"

namespace slickbench {

template <typename Agg>
class Timed {
 public:
  using op_type = typename Agg::op_type;
  using value_type = typename Agg::value_type;
  using result_type = typename Agg::result_type;

  explicit Timed(std::size_t window)
    requires std::is_constructible_v<Agg, std::size_t>
      : agg_(window) {}

  Timed(std::size_t window, std::vector<std::size_t> ranges)
    requires std::is_constructible_v<Agg, std::size_t,
                                     std::vector<std::size_t>>
      : agg_(window, std::move(ranges)) {}

  void slide(value_type v) {
    ++slides_;
    trace::Scope span(trace::kCoreSlide);
    agg_.slide(std::move(v));
  }

  void BulkSlide(const value_type* src, std::size_t n)
    requires slick::window::BulkFixedWindowAggregator<Agg>
  {
    ++slides_;
    trace::Scope span(trace::kCoreSlide);
    agg_.BulkSlide(src, n);
  }

  result_type query() const {
    ++answers_;
    trace::Scope span(trace::kCoreAnswer);
    return agg_.query();
  }

  result_type query(std::size_t range) const {
    ++answers_;
    trace::Scope span(trace::kCoreAnswer);
    return agg_.query(range);
  }

  void query_multi(const std::vector<std::size_t>& ranges_desc,
                   std::vector<result_type>& out) const
    requires requires(const Agg& a, const std::vector<std::size_t>& r,
                      std::vector<result_type>& o) { a.query_multi(r, o); }
  {
    ++answers_;
    trace::Scope span(trace::kCoreAnswer);
    agg_.query_multi(ranges_desc, out);
  }

  std::size_t window_size() const { return agg_.window_size(); }
  std::size_t memory_bytes() const { return agg_.memory_bytes(); }

  /// Calls made, sampled or not.
  uint64_t slide_calls() const { return slides_; }
  uint64_t answer_calls() const { return answers_; }

 private:
  Agg agg_;
  uint64_t slides_ = 0;
  mutable uint64_t answers_ = 0;
};

}  // namespace slickbench
