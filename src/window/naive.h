#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "util/check.h"
#include "util/serde.h"

namespace slick::window {

/// Naive final aggregation (the paper's baseline, §2.2): a circular array of
/// the window's partial aggregates; every answer is produced by iterating
/// over the requested range and folding it from scratch.
///
/// Complexity (Table 1): exactly n-1 operations per slide for a single
/// query over a window of n partials; n²/2 - n/2 in the max-multi-query
/// environment. Space: n.
template <ops::AggregateOp Op>
class NaiveWindow {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  /// Creates a window of `window` partials, pre-filled with ⊕'s identity.
  explicit NaiveWindow(std::size_t window)
      : partials_(window, Op::identity()) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
  }

  /// Stores the newest partial over the expiring one and advances.
  void slide(value_type v) {
    partials_[pos_] = std::move(v);
    pos_ = pos_ + 1 == partials_.size() ? 0 : pos_ + 1;
  }

  /// Batch slide (DESIGN.md §11): the circular write of the min(n, window)
  /// surviving partials collapses to at most two contiguous copies.
  void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t w = partials_.size();
    const std::size_t m = n < w ? n : w;
    const value_type* last = src + (n - m);
    const std::size_t start = (pos_ + (n - m)) % w;
    const std::size_t first = std::min(m, w - start);
    std::copy(last, last + first, partials_.data() + start);
    std::copy(last + first, last + m, partials_.data());
    pos_ = (pos_ + n) % w;
  }

  /// Replaces the partial `age` slides old (0 = newest) — the §3.1
  /// "updates on partial aggregates already stored within the window"
  /// capability. O(1); subsequent queries see the correction.
  void UpdateAt(std::size_t age, value_type v) {
    partials_[IndexOfAge(age)] = std::move(v);
  }

  /// Reads the partial `age` slides old.
  const value_type& PeekAt(std::size_t age) const {
    return partials_[IndexOfAge(age)];
  }

  /// Aggregate of the whole window.
  result_type query() const { return query(partials_.size()); }

  /// Aggregate of the newest `range` partials (1 <= range <= window_size()).
  result_type query(std::size_t range) const {
    const std::size_t n = partials_.size();
    SLICK_CHECK(range >= 1 && range <= n, "query range out of bounds");
    std::size_t i = pos_ >= range ? pos_ - range : pos_ + n - range;
    value_type acc = partials_[i];
    for (std::size_t k = 1; k < range; ++k) {
      i = i + 1 == n ? 0 : i + 1;
      acc = Op::combine(acc, partials_[i]);
    }
    return Op::lower(acc);
  }

  std::size_t window_size() const { return partials_.size(); }

  /// Checkpoints the window (DSMS fault tolerance).
  void SaveState(std::ostream& os) const
    requires util::Serializable<value_type>
  {
    util::WriteTag(os, util::MakeTag('N', 'A', 'I', '1'), 1);
    util::WriteValVec(os, partials_);
    util::WritePod<uint64_t>(os, pos_);
  }

  /// Restores a checkpoint, replacing the current state. Transactional:
  /// the frame is parsed into temporaries and committed by swap only once
  /// it validates, so a rejected frame leaves this window untouched.
  bool LoadState(std::istream& is)
    requires util::Serializable<value_type>
  {
    if (!util::ExpectTag(is, util::MakeTag('N', 'A', 'I', '1'), 1)) {
      return false;
    }
    std::vector<value_type> partials;
    uint64_t pos = 0;
    if (!util::ReadValVec(is, &partials) || !util::ReadPod(is, &pos)) {
      return false;
    }
    if (partials.empty() || pos >= partials.size()) return false;
    partials_.swap(partials);
    pos_ = static_cast<std::size_t>(pos);
    return true;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + partials_.capacity() * sizeof(value_type);
  }

 private:
  std::size_t IndexOfAge(std::size_t age) const {
    const std::size_t n = partials_.size();
    SLICK_CHECK(age < n, "update age out of window");
    // Newest partial sits just behind the write cursor.
    return pos_ >= age + 1 ? pos_ - age - 1 : pos_ + n - age - 1;
  }

  std::vector<value_type> partials_;
  std::size_t pos_ = 0;  // next write position (== oldest partial)
};

}  // namespace slick::window

