#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/range_index.h"
#include "ops/kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"

namespace slick::core {

/// SlickDeque (Inv) — the paper's Algorithm 1: final aggregation for
/// *invertible* operations, extended from Panes (Inv) / Subtract-on-Evict to
/// multi-ACQ processing. A circular array holds the window's partials; one
/// running answer is maintained per registered distinct range. Each slide
/// updates every answer with exactly one ⊕ (the arriving partial) and one ⊖
/// (the partial expiring from that range).
///
/// Complexity (Table 1): exactly 2 operations per slide single-query, 2n in
/// the max-multi-query environment. Space: n + (one value per distinct
/// registered range), i.e. n+1 single-query and 2n max-multi-query — the
/// lowest of all compared algorithms. The answers map's hashed index adds
/// 8–16 bytes per registered range (see RangeIndex).
///
/// The inverse is applied as `inverse(ans ⊕ new, expiring)`, which assumes a
/// commutative ⊕ (true of every invertible op in this library; a
/// non-commutative invertible op would need a dedicated left-inverse).
template <ops::InvertibleOp Op>
class SlickDequeInv {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  /// Creates a window of `window` partials. `ranges` lists the distinct
  /// query ranges to answer (the Preparation phase's `answers` map keys);
  /// by default only the full window is registered. Duplicate ranges are
  /// collapsed — queries over the same range share one running answer, as
  /// the paper prescribes.
  explicit SlickDequeInv(std::size_t window,
                         std::vector<std::size_t> ranges = {})
      : window_(window), partials_(window, Op::identity()) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
    if (ranges.empty()) ranges.push_back(window);
    std::sort(ranges.begin(), ranges.end());
    ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
    answers_.reserve(ranges.size());
    for (std::size_t r : ranges) {
      SLICK_CHECK(r >= 1 && r <= window, "registered range out of bounds");
      answers_.push_back(Answer{r, Op::identity()});
    }
    index_ = RangeIndex(answers_);
  }

  /// Stores the newest partial and refreshes every registered answer:
  /// ans = (ans ⊕ new) ⊖ expiring.
  SLICK_REALTIME void slide(value_type v) {
    for (Answer& a : answers_) {
      const std::size_t start =
          pos_ >= a.range ? pos_ - a.range : pos_ + window_ - a.range;
      a.value = Op::inverse(Op::combine(a.value, v), partials_[start]);
    }
    partials_[pos_] = std::move(v);
    pos_ = pos_ + 1 == window_ ? 0 : pos_ + 1;
  }

  /// Batch slide (DESIGN.md §11): refreshes every registered answer with
  /// O(1) aggregate applications instead of one ⊕/⊖ pair per element —
  /// ans' = (ans ⊕ fold(batch)) ⊖ fold(expiring span), where both folds go
  /// through ops::FoldValues so invertible ops with registered kernels
  /// (Sum, SumInt, ...) vectorize. Exact for integer group ops; floating
  /// point may differ from the sequential path by reassociation only.
  SLICK_REALTIME void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    if (n >= window_) {
      // Every pre-batch partial expires: recompute each answer directly
      // from the trailing window_ batch elements.
      const value_type* tail = src + (n - window_);
      for (Answer& a : answers_) {
        a.value = ops::FoldValues<Op>(tail + (window_ - a.range), a.range);
      }
      // The oldest surviving element lands at the post-batch cursor.
      WriteCircular(tail, window_, (pos_ + n) % window_);
      pos_ = (pos_ + n) % window_;
      return;
    }
    const value_type batch = ops::FoldValues<Op>(src, n);
    // Answers must be refreshed before the circular write: when a range
    // spans the whole window its expiring span IS the write region.
    for (Answer& a : answers_) {
      if (a.range <= n) {
        // The whole range now lies inside the batch.
        a.value = ops::FoldValues<Op>(src + (n - a.range), a.range);
      } else {
        // The n oldest partials of the range expire: a circular span of
        // length n starting at the range's current start position.
        const std::size_t start =
            pos_ >= a.range ? pos_ - a.range : pos_ + window_ - a.range;
        a.value = Op::inverse(Op::combine(a.value, batch),
                              FoldCircular(start, n));
      }
    }
    WriteCircular(src, n, pos_);
    pos_ = (pos_ + n) % window_;
  }

  /// Replaces the partial `age` slides old (0 = newest) — the §3.1
  /// in-window update capability. Every registered answer whose range
  /// still covers that partial is patched with one ⊖ (remove the stale
  /// value) and one ⊕ (apply the correction). O(registered ranges).
  SLICK_REALTIME void UpdateAt(std::size_t age, value_type v) {
    SLICK_CHECK(age < window_, "update age out of window");
    const std::size_t idx =
        pos_ >= age + 1 ? pos_ - age - 1 : pos_ + window_ - age - 1;
    for (Answer& a : answers_) {
      if (a.range > age) {
        a.value = Op::combine(Op::inverse(a.value, partials_[idx]), v);
      }
    }
    partials_[idx] = std::move(v);
  }

  /// Answer for the full window (must be a registered range).
  SLICK_REALTIME result_type query() const { return query(window_); }

  /// Answer for a registered range — no aggregate operations. The lookup
  /// is one probe of the hashed answers map (RangeIndex): a multiply, a
  /// slot load and a range compare, independent of how many ranges are
  /// registered.
  SLICK_REALTIME result_type query(std::size_t range) const {
    const Answer* a = index_.Find(answers_, range);
    SLICK_CHECK(a != nullptr, "queried range was not registered");
    return Op::lower(a->value);
  }

  bool has_range(std::size_t range) const {
    return index_.Find(answers_, range) != nullptr;
  }

  /// Visits every registered (range, answer) pair in ascending range order
  /// — the idiomatic way to drain the answers map each slide in a
  /// multi-query environment (no per-range lookup cost).
  template <typename F>
  void for_each_answer(F&& f) const {
    for (const Answer& a : answers_) f(a.range, Op::lower(a.value));
  }

  std::size_t window_size() const { return window_; }

  /// Checkpoints the window and the answers map (DSMS fault tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('S', 'D', 'I', '1'), 1);
    util::WritePodVec(os, partials_);
    util::WritePodVec(os, answers_);
    util::WritePod<uint64_t>(os, pos_);
  }

  /// Restores a checkpoint, replacing the current state (including the
  /// window size and the registered ranges). Transactional: the frame is
  /// parsed and validated into temporaries, and a rejected frame (false)
  /// leaves this instance untouched.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    if (!util::ExpectTag(is, util::MakeTag('S', 'D', 'I', '1'), 1)) {
      return false;
    }
    std::vector<value_type> partials;
    std::vector<Answer> answers;
    uint64_t pos = 0;
    if (!util::ReadPodVec(is, &partials) || !util::ReadPodVec(is, &answers) ||
        !util::ReadPod(is, &pos)) {
      return false;
    }
    if (partials.empty() || answers.empty() || pos >= partials.size()) {
      return false;
    }
    // Ranges must be strictly ascending (hence unique) and within the
    // restored window, as the constructor leaves them.
    std::size_t prev = 0;
    for (const Answer& a : answers) {
      if (a.range <= prev || a.range > partials.size()) return false;
      prev = a.range;
    }
    RangeIndex index(answers);
    window_ = partials.size();
    partials_.swap(partials);
    answers_.swap(answers);
    index_ = std::move(index);
    pos_ = static_cast<std::size_t>(pos);
    return true;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + partials_.capacity() * sizeof(value_type) +
           answers_.capacity() * sizeof(Answer) + index_.bytes();
  }

 private:
  struct Answer {
    std::size_t range;
    value_type value;
  };

  /// Fold of the circular partials span [start, start+len) in stream
  /// order — at most two contiguous kernel folds.
  value_type FoldCircular(std::size_t start, std::size_t len) const {
    const std::size_t first = std::min(len, window_ - start);
    value_type acc = ops::FoldValues<Op>(partials_.data() + start, first);
    if (first < len) {
      acc = Op::combine(acc,
                        ops::FoldValues<Op>(partials_.data(), len - first));
    }
    return acc;
  }

  /// Copies `len` (<= window_) values into the circular buffer at `start`.
  void WriteCircular(const value_type* src, std::size_t len,
                     std::size_t start) {
    const std::size_t first = std::min(len, window_ - start);
    std::copy(src, src + first, partials_.data() + start);
    std::copy(src + first, src + len, partials_.data());
  }

  std::size_t window_;
  std::vector<value_type> partials_;
  std::vector<Answer> answers_;  // sorted by range ascending
  std::size_t pos_ = 0;  // next write position
  // Last, so the members slide() reads keep their offsets in one line.
  RangeIndex index_;  // range -> position in answers_
};

}  // namespace slick::core

