#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ops/traits.h"
#include "util/check.h"
#include "util/serde.h"

namespace slick::window {

/// FlatFIT — Flat and Fast Index Traverser (paper §2.2): two circular
/// arrays, `PartialInts` (intermediate aggregates, vals_ here) and
/// `Pointers` (skip targets, jump_ here), plus a `Positions` stack of the
/// indices visited by the current traversal.
///
/// Invariant: vals_[i] aggregates the stream positions i .. jump_[i]-1 (in
/// circular stream order), so an answer for a range is assembled by hopping
/// along jump_ from the range's start to the current position, combining
/// the stored intermediates. Every traversal then *path-compresses*: each
/// visited index is repointed directly at the current position with the
/// corresponding suffix aggregate stored in vals_, which is what gives
/// FlatFIT its amortized-constant cost (Table 1: amortized 3 ops per slide,
/// worst case n during the cyclical "window reset"; in the max-multi-query
/// environment n-1 ops per slide). Space: 2n plus the traversal stack.
template <ops::AggregateOp Op>
class FlatFit {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  explicit FlatFit(std::size_t window)
      : window_(window),
        vals_(window, Op::identity()),
        jump_(window) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
    SLICK_CHECK(window <= UINT32_MAX, "window exceeds index width");
    for (std::size_t i = 0; i < window; ++i) {
      jump_[i] = static_cast<uint32_t>(Next(i));
    }
    stack_.reserve(window);
  }

  /// Stores the newest partial; the index traversal happens lazily inside
  /// query().
  void slide(value_type v) {
    cur_ = pos_;
    vals_[cur_] = std::move(v);
    jump_[cur_] = static_cast<uint32_t>(Next(cur_));
    pos_ = Next(pos_);
  }

  /// Batch slide (DESIGN.md §11): FlatFIT's slide is pure stores (the index
  /// traversal happens lazily inside query()), so the batch form is one
  /// tight loop over the min(n, window) surviving elements. State is
  /// bit-identical to n sequential slide() calls — overwritten stores and
  /// their jump pointers are value-independent.
  void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t m = n < window_ ? n : window_;
    const value_type* last = src + (n - m);
    std::size_t i = (pos_ + (n - m)) % window_;
    for (std::size_t k = 0; k < m; ++k) {
      vals_[i] = last[k];
      jump_[i] = static_cast<uint32_t>(Next(i));
      i = Next(i);
    }
    cur_ = (pos_ + n - 1) % window_;
    pos_ = (pos_ + n) % window_;
  }

  /// Aggregate of the whole window. Non-const: traversals compress paths.
  result_type query() { return query(window_); }

  /// Aggregate of the newest `range` partials, in stream order.
  result_type query(std::size_t range) {
    SLICK_CHECK(range >= 1 && range <= window_, "query range out of bounds");
    // Start of the range: `range` positions back, inclusive of cur_.
    const std::size_t start =
        cur_ + 1 >= range ? cur_ + 1 - range : cur_ + 1 + window_ - range;
    if (start == cur_) return Op::lower(vals_[cur_]);

    // Phase 1: hop along the skip pointers, accumulating intermediates.
    std::size_t i = start;
    stack_.push_back(static_cast<uint32_t>(i));
    value_type acc = vals_[i];
    i = jump_[i];
    while (i != cur_) {
      stack_.push_back(static_cast<uint32_t>(i));
      acc = Op::combine(acc, vals_[i]);
      i = jump_[i];
    }
    const result_type answer = Op::lower(Op::combine(acc, vals_[cur_]));

    // Phase 2: path compression. Walk the visited indices newest-first,
    // storing in each the aggregate of positions [index .. cur_-1] and
    // repointing it directly at cur_. The range-start node (popped last)
    // compresses for free: its suffix is exactly the traversal's
    // accumulator.
    bool have_suffix = false;
    while (stack_.size() > 1) {
      const std::size_t k = stack_.back();
      stack_.pop_back();
      if (have_suffix) vals_[k] = Op::combine(vals_[k], suffix_);
      suffix_ = vals_[k];
      have_suffix = true;
      jump_[k] = static_cast<uint32_t>(cur_);
    }
    vals_[start] = std::move(acc);
    jump_[start] = static_cast<uint32_t>(cur_);
    stack_.clear();
    return answer;
  }

  std::size_t window_size() const { return window_; }

  /// Checkpoints the window, index structure included (DSMS fault
  /// tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('F', 'I', 'T', '1'), 1);
    util::WritePodVec(os, vals_);
    util::WritePodVec(os, jump_);
    util::WritePod<uint64_t>(os, pos_);
    util::WritePod<uint64_t>(os, cur_);
  }

  /// Restores a checkpoint, replacing the current state; leaves the target
  /// untouched when the stream is rejected.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    if (!util::ExpectTag(is, util::MakeTag('F', 'I', 'T', '1'), 1)) {
      return false;
    }
    std::vector<value_type> vals;
    std::vector<uint32_t> jump;
    uint64_t pos = 0, cur = 0;
    if (!util::ReadPodVec(is, &vals) || !util::ReadPodVec(is, &jump) ||
        !util::ReadPod(is, &pos) || !util::ReadPod(is, &cur)) {
      return false;
    }
    const std::size_t n = vals.size();
    if (n == 0 || jump.size() != n || pos >= n || cur >= n) return false;
    // Every traversal hops along jump_ until it reaches cur_, so each
    // pointer off cur_ must stay in range and move strictly closer to cur_
    // in ring order — otherwise query() reads out of bounds or never ends.
    // O(n), once per load.
    const auto dist = [&](std::size_t i) {
      return (static_cast<std::size_t>(cur) + n - i) % n;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (jump[i] >= n) return false;
      if (i != cur && dist(jump[i]) >= dist(i)) return false;
    }
    vals_ = std::move(vals);
    jump_ = std::move(jump);
    window_ = n;
    pos_ = static_cast<std::size_t>(pos);
    cur_ = static_cast<std::size_t>(cur);
    stack_.clear();
    return true;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + vals_.capacity() * sizeof(value_type) +
           jump_.capacity() * sizeof(uint32_t) +
           stack_.capacity() * sizeof(uint32_t);
  }

 private:
  std::size_t Next(std::size_t i) const {
    return i + 1 == window_ ? 0 : i + 1;
  }

  std::size_t window_;
  std::vector<value_type> vals_;   // the paper's PartialInts
  std::vector<uint32_t> jump_;     // the paper's Pointers
  std::vector<uint32_t> stack_;    // the paper's Positions
  value_type suffix_ = Op::identity();  // scratch for path compression
  std::size_t pos_ = 0;  // next write position
  std::size_t cur_ = 0;  // position of the newest partial
};

}  // namespace slick::window

