#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::window {

/// DABA — De-Amortized Bankers Algorithm (paper §2.2, Fig 6): TwoStacks with
/// the O(n) flip spread across the preceding insert/evict events, giving a
/// worst-case-constant number of aggregate operations per slide at the cost
/// of a higher amortized count (Table 1: amortized 5, worst case 8).
///
/// Layout: one window::SeqRing of (val, agg) entries, logically split by
/// sequence pointers  front ≤ l ≤ r ≤ a ≤ b ≤ end  into
///
///   F = [front, b)  — the "front stack":   target  agg[i] = Σ val[i..b)
///   B = [b, end)    — the "back stack":            agg[i] = Σ val[b..i]
///
/// F is further split into the repair regions
///
///   [front, l) — repaired:        agg[i] = Σ val[i..b)
///   L = [l, r) — awaiting delta:  agg[i] = Σ val[i..r)
///   R = [r, a) — unconverted:     agg holds stale data; val is authoritative
///   A = [a, b) — converted:       agg[i] = Σ val[i..b)
///
/// and the scalar delta_ = Σ val[r..b), captured at flip time from the old
/// back stack's topmost prefix. Each Step() performs at most two combines:
/// one extends A leftwards over R (building suffixes right-to-left), one
/// completes an L entry by appending delta_. When l reaches b every entry of
/// F satisfies the target invariant, so the queue is re-partitioned (flip):
/// the old B becomes the new R, the freshly captured delta_ serves the next
/// round, and B restarts empty. The window answer is always
/// combine(agg[front], agg[end-1]) — one or two combines, never a spike.
///
/// The de-amortization schedule follows the DEBS'17 construction; the
/// region bookkeeping here uses an explicitly captured delta scalar, which
/// keeps the fix-up O(1) worst-case for arbitrary insert/evict interleaving
/// (verified by the invariant checker and the randomized oracle tests).
/// Single-query only, as in the paper.
template <ops::AggregateOp Op>
class Daba {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  SLICK_REALTIME void insert(value_type v) {
    value_type agg = BackEmpty() ? v : Op::combine(q_.back().agg, v);
    q_.push_back(Entry{std::move(v), std::move(agg)});
    Step();
  }

  SLICK_REALTIME void evict() {
    SLICK_CHECK(!q_.empty(), "evict from empty DABA window");
    q_.pop_front();
    Step();
  }

  /// Batch forms (DESIGN.md §11). DABA's de-amortization *requires* the
  /// O(1) fix-up to run once per event — skipping Steps would let repair
  /// fall behind the front pointer — so the batch entry points are tight
  /// loops over insert()/evict(); the saving is call/dispatch overhead
  /// only, which is exactly what Table 1's worst-case-O(1) design trades
  /// throughput for. BulkInsert reserves the ring first, so Windowed's
  /// identity pre-fill sizes it exactly once, to the window.
  SLICK_REALTIME void BulkInsert(const value_type* src, std::size_t n) {
    q_.reserve(q_.size() + n);
    for (std::size_t i = 0; i < n; ++i) insert(src[i]);
  }

  SLICK_REALTIME void BulkEvict(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) evict();
  }

  /// Aggregate of the entire window, in stream order. O(1) worst case.
  SLICK_REALTIME result_type query() const {
    if (q_.empty()) return Op::lower(Op::identity());
    if (FrontEmpty()) return Op::lower(q_.back().agg);
    if (BackEmpty()) return Op::lower(q_.front().agg);
    return Op::lower(Op::combine(q_.front().agg, q_.back().agg));
  }

  std::size_t size() const { return q_.size(); }

  std::size_t memory_bytes() const { return sizeof(*this) + q_.buffer_bytes(); }

  /// Checkpoints the window, including the fix-up region pointers (DSMS
  /// fault tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('D', 'A', 'B', '1'), 1);
    q_.SaveState(os);
    util::WritePod(os, l_);
    util::WritePod(os, r_);
    util::WritePod(os, a_);
    util::WritePod(os, b_);
    util::WritePod(os, delta_);
  }

  /// Restores a checkpoint, replacing the current state. The frame is
  /// parsed into temporaries, its region pointers checked to be ordered
  /// inside the queue's seqs, and committed by move, so a rejected frame
  /// leaves this instance untouched.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    SeqRing<Entry> q;
    uint64_t l = 0, r = 0, a = 0, b = 0;
    value_type delta = Op::identity();
    if (!util::ExpectTag(is, util::MakeTag('D', 'A', 'B', '1'), 1) ||
        !q.LoadState(is) || !util::ReadPod(is, &l) ||
        !util::ReadPod(is, &r) || !util::ReadPod(is, &a) ||
        !util::ReadPod(is, &b) || !util::ReadPod(is, &delta) ||
        !(q.front_seq() <= l && l <= r && r <= a && a <= b &&
          b <= q.end_seq())) {
      return false;
    }
    q_ = std::move(q);
    l_ = l;
    r_ = r;
    a_ = a;
    b_ = b;
    delta_ = delta;
    return true;
  }

  /// Validates every region invariant by brute force. O(n·combine); meant
  /// for tests only.
  bool CheckInvariants() const;

 private:
  struct Entry {
    value_type val;
    value_type agg;
  };

  bool FrontEmpty() const { return b_ == q_.front_seq(); }
  bool BackEmpty() const { return b_ == q_.end_seq(); }

  /// One O(1) unit of deferred flip work.
  void Step() {
    if (l_ == b_) Flip();
    if (FrontEmpty()) return;
    if (a_ != r_) {
      // Extend A leftwards: convert one R entry to suffix form.
      ConvertOne();
      // If L is exhausted but conversion is not, use this step's second
      // combine budget on another conversion so that repair can never fall
      // behind the front pointer under insert-heavy interleavings.
      if (l_ == r_ && a_ != r_) ConvertOne();
    }
    if (l_ != r_) {
      // Complete one L entry: Σ val[l..r) ⊕ Σ val[r..b) = Σ val[l..b).
      q_[l_].agg = Op::combine(q_[l_].agg, delta_);
      ++l_;
    } else if (a_ == r_) {
      // Everything between l and a is repaired; walk the block forward.
      ++l_;
      ++r_;
      ++a_;
    }
  }

  void ConvertOne() {
    const value_type& suffix_right = a_ == b_ ? zero_ : q_[a_].agg;
    --a_;
    q_[a_].agg = Op::combine(q_[a_].val, suffix_right);
  }

  /// Re-partitions the queue once every F entry holds Σ val[i..b): the old
  /// back stack becomes the repair region R of the new front stack.
  void Flip() {
    delta_ = BackEmpty() ? Op::identity() : q_.back().agg;  // Σ val[b..end)
    l_ = q_.front_seq();
    r_ = b_;
    a_ = q_.end_seq();
    b_ = q_.end_seq();
  }

  SeqRing<Entry> q_;
  uint64_t l_ = 0, r_ = 0, a_ = 0, b_ = 0;
  value_type delta_ = Op::identity();  // Σ val[r..b), captured at flip
  value_type zero_ = Op::identity();
};

template <ops::AggregateOp Op>
bool Daba<Op>::CheckInvariants() const {
  if (!(q_.front_seq() <= l_ && l_ <= r_ && r_ <= a_ && a_ <= b_ &&
        b_ <= q_.end_seq())) {
    return false;
  }
  auto fold = [](uint64_t lo, uint64_t hi, const auto& q) {
    value_type acc = Op::identity();
    for (uint64_t i = lo; i < hi; ++i) acc = Op::combine(acc, q[i].val);
    return acc;
  };
  auto equal = [](const value_type& x, const value_type& y) {
    // Structural comparison via lower(); adequate for the test ops.
    return Op::lower(x) == Op::lower(y);
  };
  for (uint64_t i = q_.front_seq(); i < l_; ++i) {
    if (!equal(q_[i].agg, fold(i, b_, q_))) return false;
  }
  for (uint64_t i = l_; i < r_; ++i) {
    if (!equal(q_[i].agg, fold(i, r_, q_))) return false;
  }
  for (uint64_t i = a_; i < b_; ++i) {
    if (!equal(q_[i].agg, fold(i, b_, q_))) return false;
  }
  for (uint64_t i = b_; i < q_.end_seq(); ++i) {
    if (!equal(q_[i].agg, fold(b_, i + 1, q_))) return false;
  }
  // delta_ is only consumed by L fix-ups; once L is empty the shift phase
  // advances r_ and the captured value goes stale by design.
  if (l_ != r_ && !equal(delta_, fold(r_, b_, q_))) return false;
  return true;
}

}  // namespace slick::window

