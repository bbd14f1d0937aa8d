#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/check.h"

namespace slick::stream {

/// What ReorderBuffer::Offer did with an element — the caller's lateness
/// policy hook (drop, side-output, alert). Only kAdmitted elements are
/// buffered; the other two classes are rejected without side effects.
enum class Admission {
  kAdmitted,   ///< buffered (and possibly released) in sequence order
  kLate,       ///< slot already passed and was never emitted: a straggler
               ///< beyond the horizon (or a re-send of one)
  kDuplicate,  ///< same sequence number seen before: pending in the buffer,
               ///< or already emitted within the dedup horizon
};

inline const char* AdmissionName(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kLate: return "late";
    case Admission::kDuplicate: return "duplicate";
  }
  return "unknown";
}

/// Bounded-lateness reorder buffer (the paper's §3.1 arrival-order
/// assumption: "the arriving tuples have to be in-order or slightly
/// out-of-order"). Elements carry a sequence number; an element may arrive
/// at most `horizon` positions late. The buffer holds a min-heap of
/// pending elements and releases them in exact sequence order once they
/// can no longer be preceded by a straggler.
///
/// Feeding a DSMS engine through this buffer turns a slightly-out-of-order
/// stream into the in-order stream the final aggregators require. Offer()
/// classifies every rejected element (Admission) so the caller can apply
/// its lateness policy; duplicates — whether still pending in the heap or
/// already released — are detected and never emitted twice. Dedup memory
/// is bounded: a re-send of an element released more than `horizon`
/// positions ago classifies as kLate rather than kDuplicate (both are
/// rejected, so downstream exactly-once emission is unaffected).
///
/// It suits only small, bounded displacement. Genuinely out-of-order
/// event-time streams (arbitrary displacement, watermark-driven bulk
/// eviction) need an out-of-order aggregator such as FiBA, which this
/// library does not ship (DESIGN.md §13 points to the literature).
template <typename T>
class ReorderBuffer {
 public:
  explicit ReorderBuffer(uint64_t horizon) : horizon_(horizon) {}

  /// Admits element `seq`, releasing every element that became final.
  /// Returns the element's classification; only kAdmitted elements are
  /// buffered (kLate / kDuplicate elements are dropped, matching the
  /// documented "NOT buffered" contract).
  template <typename Emit>
  SLICK_NODISCARD Admission Offer(uint64_t seq, T value, Emit&& emit) {
    if (seq < next_) {
      // The slot was already passed. If it was actually emitted (and is
      // still inside the dedup window) this is a re-send; otherwise the
      // slot was skipped for liveness and this is a genuine straggler.
      return WasReleased(seq) ? Admission::kDuplicate : Admission::kLate;
    }
    if (pending_.contains(seq)) return Admission::kDuplicate;
    pending_.insert(seq);
    heap_.emplace_back(seq, std::move(value));
    std::push_heap(heap_.begin(), heap_.end(), Greater());
    max_seen_ = std::max(max_seen_, seq);
    // Everything at least `horizon` behind the newest arrival is final.
    while (!heap_.empty() && heap_.front().first + horizon_ <= max_seen_) {
      Release(emit);
    }
    return Admission::kAdmitted;
  }

  /// Releases everything still pending, in order (end of stream).
  template <typename Emit>
  void Flush(Emit&& emit) {
    while (!heap_.empty()) Release(emit);
  }

  std::size_t pending() const { return heap_.size(); }
  uint64_t next_expected() const { return next_; }

 private:
  struct Greater {
    bool operator()(const std::pair<uint64_t, T>& a,
                    const std::pair<uint64_t, T>& b) const {
      return a.first > b.first;
    }
  };

  template <typename Emit>
  void Release(Emit& emit) {
    std::pop_heap(heap_.begin(), heap_.end(), Greater());
    auto [seq, value] = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(seq);
    // Invariant, not input validation: Offer rejects seq < next_ and
    // deduplicates the heap, so a release can never regress.
    SLICK_DCHECK(seq >= next_, "duplicate or regressed sequence");
    next_ = seq + 1;
    released_.push_back(seq);
    // Bounded dedup memory: remember the last horizon+1 emitted sequences.
    while (released_.size() > horizon_ + 1) released_.pop_front();
    emit(seq, std::move(value));
  }

  /// True iff `seq` was emitted and is still inside the dedup window.
  /// released_ is sorted ascending (releases happen in sequence order).
  bool WasReleased(uint64_t seq) const {
    return std::binary_search(released_.begin(), released_.end(), seq);
  }

  std::vector<std::pair<uint64_t, T>> heap_;  // min-heap by sequence
  std::unordered_set<uint64_t> pending_;      // sequences currently in heap_
  std::deque<uint64_t> released_;  // recently emitted sequences, ascending
  uint64_t horizon_;
  uint64_t next_ = 0;      // next sequence to release
  uint64_t max_seen_ = 0;  // newest sequence observed
};

}  // namespace slick::stream
