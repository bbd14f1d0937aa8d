#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <cstdint>
#include <utility>

#include "util/check.h"
#include "window/aggregator.h"
#include "window/seq_ring.h"

namespace slick::core {

/// Event-time sliding window (the paper's ACQs can be count- or
/// time-based, §1): keeps every element whose timestamp lies within
/// `range` of the newest observed timestamp, i.e. the window
/// (now - range, now]. Built on any dynamically sized FIFO aggregator —
/// time-based windows admit a *variable* number of elements per instant,
/// which is exactly what insert()/evict() pairs of TwoStacks, DABA,
/// SlickDeque (Non-Inv)'s FIFO face or Subtract-on-Evict support.
///
/// Timestamps must be non-decreasing (the paper's in-order arrival
/// assumption, §3.1; see stream::ReorderBuffer for slightly out-of-order
/// feeds).
template <window::FifoAggregator A>
class TimeWindow {
 public:
  using op_type = typename A::op_type;
  using value_type = typename A::value_type;
  using result_type = typename A::result_type;

  /// `range` in timestamp units (e.g. milliseconds, or tuple counts at a
  /// fixed sample rate).
  explicit TimeWindow(uint64_t range) : range_(range) {
    SLICK_CHECK(range >= 1, "time range must be positive");
  }

  /// Admits an element observed at `ts`, expiring everything older than
  /// ts - range + 1.
  void Observe(uint64_t ts, value_type v) {
    SLICK_CHECK(ts >= now_, "timestamps must be non-decreasing");
    now_ = ts;
    EvictExpired();
    timestamps_.push_back(ts);
    agg_.insert(std::move(v));
  }

  /// Advances time without an element (e.g. on a punctuation or timer
  /// tick), expiring old elements.
  void AdvanceTo(uint64_t ts) {
    SLICK_CHECK(ts >= now_, "timestamps must be non-decreasing");
    now_ = ts;
    EvictExpired();
  }

  /// Aggregate of the current window (now - range, now].
  result_type query() const { return agg_.query(); }

  uint64_t now() const { return now_; }
  std::size_t size() const { return agg_.size(); }
  uint64_t range() const { return range_; }

  std::size_t memory_bytes() const {
    return sizeof(*this) + agg_.memory_bytes() + timestamps_.buffer_bytes();
  }

 private:
  void EvictExpired() {
    const uint64_t cutoff = now_ >= range_ ? now_ - range_ + 1 : 0;
    while (!timestamps_.empty() && timestamps_.front() < cutoff) {
      timestamps_.pop_front();
      agg_.evict();
    }
  }

  A agg_;
  window::SeqRing<uint64_t> timestamps_;
  uint64_t range_;
  uint64_t now_ = 0;
};

}  // namespace slick::core

