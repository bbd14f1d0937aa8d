#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "util/check.h"
#include "util/math.h"
#include "util/serde.h"

namespace slick::window {

/// FlatFAT — Flat Fixed-sized Aggregator (paper §2.2, Fig 4): a pre-allocated
/// pointer-less complete binary tree whose leaves form a circular array of
/// the window's partials. Each slide writes one leaf and updates the
/// ancestors bottom-up (log₂(m) combines); answers are produced from the
/// root (full window) or from a minimal set of internal nodes covering the
/// requested leaf range, combined strictly in stream order so that
/// non-commutative operations stay correct.
///
/// Complexity (Table 1): log(n) per slide single-query, ~n·log(n) in the
/// max-multi-query environment. Space: 2·2^⌈log₂(n)⌉ (window sizes are
/// rounded up to a power of two; slot 0 of the flat array is unused to
/// simplify addressing, as the paper describes).
template <ops::AggregateOp Op>
class FlatFat {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  explicit FlatFat(std::size_t window)
      : window_(window),
        leaves_(util::NextPowerOfTwo(window)),
        tree_(2 * util::NextPowerOfTwo(window), Op::identity()) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
  }

  /// Writes the newest partial into the expiring leaf and updates the path
  /// to the root.
  void slide(value_type v) {
    std::size_t node = leaves_ + pos_;
    tree_[node] = std::move(v);
    for (node >>= 1; node >= 1; node >>= 1) {
      tree_[node] = Op::combine(tree_[2 * node], tree_[2 * node + 1]);
    }
    pos_ = pos_ + 1 == window_ ? 0 : pos_ + 1;
  }

  /// Batch slide (DESIGN.md §11): writes the min(n, window) surviving
  /// leaves, then rebuilds ancestors level by level over the dirty
  /// interval(s) — the circular write is at most two contiguous leaf runs,
  /// which merge into one interval as they narrow toward the root. Costs
  /// ~2·min(n, window) + 2·log₂(window) combines instead of n·log₂(window);
  /// internal nodes are a deterministic function of the leaves, so state
  /// matches n sequential slide() calls exactly.
  void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t m = n < window_ ? n : window_;
    const value_type* last = src + (n - m);
    const std::size_t start = (pos_ + (n - m)) % window_;
    const std::size_t first = std::min(m, window_ - start);
    for (std::size_t i = 0; i < first; ++i) {
      tree_[leaves_ + start + i] = last[i];
    }
    for (std::size_t i = first; i < m; ++i) {
      tree_[leaves_ + (i - first)] = last[i];
    }
    // Dirty leaf-node intervals, inclusive: [lo1, hi1] always; [lo2, hi2]
    // only when the circular write wrapped. lo2 < lo1 by construction.
    std::size_t lo1 = leaves_ + start;
    std::size_t hi1 = leaves_ + start + first - 1;
    std::size_t lo2 = leaves_;
    std::size_t hi2 = first < m ? leaves_ + (m - first) - 1 : 0;
    bool two = first < m;
    while (lo1 > 1) {
      lo1 >>= 1;
      hi1 >>= 1;
      if (two) {
        lo2 >>= 1;
        hi2 >>= 1;
        if (hi2 + 1 >= lo1) {  // intervals touched or overlapped: merge
          lo1 = lo2;
          two = false;
        }
      }
      for (std::size_t node = lo1; node <= hi1; ++node) {
        tree_[node] = Op::combine(tree_[2 * node], tree_[2 * node + 1]);
      }
      if (two) {
        for (std::size_t node = lo2; node <= hi2; ++node) {
          tree_[node] = Op::combine(tree_[2 * node], tree_[2 * node + 1]);
        }
      }
    }
    pos_ = (pos_ + n) % window_;
  }

  /// Replaces the partial `age` slides old (0 = newest) and refreshes the
  /// ancestor path — the update capability the paper notes FlatFAT was
  /// extended with (§2.2/§3.1). O(log n).
  void UpdateAt(std::size_t age, value_type v) {
    SLICK_CHECK(age < window_, "update age out of window");
    const std::size_t leaf =
        pos_ >= age + 1 ? pos_ - age - 1 : pos_ + window_ - age - 1;
    std::size_t node = leaves_ + leaf;
    tree_[node] = std::move(v);
    for (node >>= 1; node >= 1; node >>= 1) {
      tree_[node] = Op::combine(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  /// Aggregate of the whole window. When the window fills the whole leaf
  /// level this is just the root (the paper's fast path). For
  /// non-commutative operations the root only matches stream order while
  /// the circular window is aligned to leaf 0.
  result_type query() const { return query(window_); }

  /// Aggregate of the newest `range` partials, in stream order.
  result_type query(std::size_t range) const {
    SLICK_CHECK(range >= 1 && range <= window_, "query range out of bounds");
    if (range == window_ && window_ == leaves_ &&
        (Op::kCommutative || pos_ == 0)) {
      return Op::lower(tree_[1]);
    }
    const std::size_t start = pos_ >= range ? pos_ - range : pos_ + window_ - range;
    if (start + range <= window_) {
      return Op::lower(QuerySegment(start, start + range - 1));
    }
    const std::size_t head_len = window_ - start;
    const value_type head = QuerySegment(start, window_ - 1);
    const value_type tail = QuerySegment(0, range - head_len - 1);
    return Op::lower(Op::combine(head, tail));
  }

  std::size_t window_size() const { return window_; }

  /// Checkpoints the window (DSMS fault tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('F', 'A', 'T', '1'), 1);
    util::WritePod<uint64_t>(os, window_);
    util::WritePodVec(os, tree_);
    util::WritePod<uint64_t>(os, pos_);
  }

  /// Restores a checkpoint, replacing the current state. Only the
  /// window's leaves and the write position are trusted: the padding
  /// leaves (and unused slot 0) go back to identity and every interior
  /// node is rebuilt bottom-up with slide()'s combine order, so a frame
  /// whose interior disagrees with its leaves still answers correctly,
  /// and a consistent frame reloads bit-identically. O(window).
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    if (!util::ExpectTag(is, util::MakeTag('F', 'A', 'T', '1'), 1)) {
      return false;
    }
    uint64_t window = 0, pos = 0;
    std::vector<value_type> tree;
    if (!util::ReadPod(is, &window) || !util::ReadPodVec(is, &tree) ||
        !util::ReadPod(is, &pos)) {
      return false;
    }
    const std::size_t leaves = util::NextPowerOfTwo(window);
    if (window < 1 || pos >= window || tree.size() != 2 * leaves) return false;
    tree[0] = Op::identity();
    std::fill(tree.begin() + static_cast<std::ptrdiff_t>(leaves + window),
              tree.end(), Op::identity());
    for (std::size_t node = leaves - 1; node >= 1; --node) {
      tree[node] = Op::combine(tree[2 * node], tree[2 * node + 1]);
    }
    window_ = static_cast<std::size_t>(window);
    leaves_ = leaves;
    tree_.swap(tree);
    pos_ = static_cast<std::size_t>(pos);
    return true;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + tree_.capacity() * sizeof(value_type);
  }

 private:
  /// Order-preserving segment query over leaves [lo, hi], both inclusive.
  value_type QuerySegment(std::size_t lo, std::size_t hi) const {
    value_type left = Op::identity();
    value_type right = Op::identity();
    std::size_t l = lo + leaves_;
    std::size_t r = hi + leaves_ + 1;
    while (l < r) {
      if (l & 1) left = Op::combine(left, tree_[l++]);
      if (r & 1) right = Op::combine(tree_[--r], right);
      l >>= 1;
      r >>= 1;
    }
    return Op::combine(left, right);
  }

  std::size_t window_;
  std::size_t leaves_;  // power-of-two leaf count (>= window_)
  std::vector<value_type> tree_;  // 1-based; tree_[0] unused
  std::size_t pos_ = 0;  // next leaf position to overwrite
};

}  // namespace slick::window

