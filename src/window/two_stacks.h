#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "ops/scan_kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"

namespace slick::window {

/// TwoStacks (paper §2.2): the functional-programming queue-from-two-stacks
/// trick applied to sliding windows. Insertions push (val, running prefix
/// aggregate) onto the back stack B; evictions pop from the front stack F,
/// whose entries carry (val, running suffix aggregate). When F runs empty,
/// B is flipped onto F — the O(n) step responsible for the latency spikes
/// the paper measures in Exp 3. The window answer combines the aggregate of
/// all of F with the aggregate of all of B, front before back, so
/// non-commutative operations stay correct.
///
/// Both stacks share one circular buffer — the layout behind Table 1's
/// "both stacks combined can never have more than n nodes total": the
/// front region [f_lo_, f_lo_ + f_size_) holds the oldest elements and the
/// back region follows it. The flip converts the back region's prefix
/// aggregates into suffix aggregates *in place* (no copy, no second
/// allocation) and adopts it as the new front region.
///
/// Storage is split into parallel value/aggregate arrays (SoA), so the flip
/// and the bulk-insert prefix chain are contiguous scans over one array
/// each — the shape ops/scan_kernels.h vectorizes (HammerSlide's
/// observation that the flip is a suffix scan the vector unit can run as a
/// carry-propagating blocked pass). A region that wraps the buffer's seam
/// is scanned as two contiguous segments with a carry between them.
///
/// The buffer grows geometrically when full, so the class also serves as a
/// dynamically sized FIFO (TimeWindow, PerQueryAdapter). Under
/// core::Windowed the identity pre-fill sizes it exactly once to the window
/// and steady-state slides never grow it.
///
/// Complexity (Table 1): amortized 3 operations per slide, worst case n.
/// Space: exactly 2n values at a fixed window (one (val, agg) pair per
/// live element). Single-query only, as in the paper.
template <ops::AggregateOp Op>
class TwoStacks {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  SLICK_REALTIME void insert(value_type v) {
    if (size() == cap_) Grow(1);
    const std::size_t idx = Wrap(f_lo_ + f_size_ + b_size_);
    if (b_size_ == 0) {
      aggs_[idx] = v;
    } else {
      aggs_[idx] = Op::combine(aggs_[Wrap(f_lo_ + f_size_ + b_size_ - 1)], v);
    }
    vals_[idx] = std::move(v);
    ++b_size_;
  }

  SLICK_REALTIME void evict() {
    if (f_size_ == 0) Flip();
    SLICK_CHECK(f_size_ > 0, "evict from empty TwoStacks window");
    f_lo_ = Wrap(f_lo_ + 1);
    --f_size_;
  }

  /// Batch insert (DESIGN.md §11): the values land in at most two
  /// contiguous buffer segments and their running prefix aggregates come
  /// from the (vectorized where the op allows) prefix scan, seeded with the
  /// current back top so the chain continues exactly as m insert() calls
  /// would.
  SLICK_REALTIME void BulkInsert(const value_type* src, std::size_t m) {
    if (m == 0) return;
    if (size() + m > cap_) Grow(m);
    value_type carry = b_size_ == 0
                           ? Op::identity()
                           : aggs_[Wrap(f_lo_ + f_size_ + b_size_ - 1)];
    const std::size_t start = Wrap(f_lo_ + f_size_ + b_size_);
    const std::size_t first = std::min(m, cap_ - start);
    std::copy(src, src + first, vals_.data() + start);
    ops::PrefixScanValues<Op>(src, aggs_.data() + start, first,
                              std::move(carry));
    if (first < m) {
      carry = aggs_[start + first - 1];
      std::copy(src + first, src + m, vals_.data());
      ops::PrefixScanValues<Op>(src + first, aggs_.data(), m - first,
                                std::move(carry));
    }
    b_size_ += m;
  }

  /// Batch evict (DESIGN.md §11): the front region pops in O(1) per element
  /// (index math only). If the eviction crosses into the back region, the
  /// n' leftover evictions drop the n' oldest back entries *before*
  /// flipping, so the flip builds suffix chains for the survivors only —
  /// the same aggregates a sequence of evict() calls would have built,
  /// n' combines cheaper.
  SLICK_REALTIME void BulkEvict(std::size_t n) {
    SLICK_CHECK(n <= size(), "bulk evict larger than window");
    const std::size_t from_front = std::min(n, f_size_);
    f_lo_ = Wrap(f_lo_ + from_front);
    f_size_ -= from_front;
    n -= from_front;
    if (n > 0) {
      f_lo_ = Wrap(f_lo_ + n);
      b_size_ -= n;
      if (b_size_ > 0) Flip();
    }
  }

  /// Aggregate of the entire window, in stream order. The newest element's
  /// index is shared by the back-only and mixed paths, so the wrap math is
  /// computed once.
  SLICK_REALTIME result_type query() const {
    const std::size_t total = f_size_ + b_size_;
    if (total == 0) return Op::lower(Op::identity());
    if (b_size_ == 0) return Op::lower(aggs_[f_lo_]);
    const std::size_t top = Wrap(f_lo_ + total - 1);  // newest element
    if (f_size_ == 0) return Op::lower(aggs_[top]);
    return Op::lower(Op::combine(aggs_[f_lo_], aggs_[top]));
  }

  std::size_t size() const { return f_size_ + b_size_; }
  std::size_t capacity() const { return cap_; }

  /// Checkpoints the window (DSMS fault tolerance). Tag TWS3: the front
  /// region's length, then the live values and aggregates in stream order
  /// (front region first), independent of where the regions sit in the
  /// buffer.
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('T', 'W', 'S', '3'), 1);
    util::WritePod<uint64_t>(os, f_size_);
    util::WritePodVec(os, Linearized(vals_));
    util::WritePodVec(os, Linearized(aggs_));
  }

  /// Restores a checkpoint, replacing the current state; leaves the target
  /// untouched when the stream is rejected.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    uint64_t front = 0;
    std::vector<value_type> vals;
    std::vector<value_type> aggs;
    if (!util::ExpectTag(is, util::MakeTag('T', 'W', 'S', '3'), 1) ||
        !util::ReadPod(is, &front) || !util::ReadPodVec(is, &vals) ||
        !util::ReadPodVec(is, &aggs)) {
      return false;
    }
    // Values and aggregates describe the same entries, and the front
    // region is a prefix of them.
    if (vals.size() != aggs.size() || front > vals.size()) return false;
    vals_ = std::move(vals);
    aggs_ = std::move(aggs);
    cap_ = vals_.size();
    f_lo_ = 0;
    f_size_ = static_cast<std::size_t>(front);
    b_size_ = cap_ - f_size_;
    return true;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) +
           (vals_.capacity() + aggs_.capacity()) * sizeof(value_type);
  }

 private:
  std::size_t Wrap(std::size_t i) const { return i >= cap_ ? i - cap_ : i; }

  /// The live entries of one of the parallel arrays, in stream order.
  std::vector<value_type> Linearized(const std::vector<value_type>& a) const {
    std::vector<value_type> out(size());
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = a[Wrap(f_lo_ + k)];
    return out;
  }

  /// Re-linearizes the live entries (stream order, front region first)
  /// into a buffer of max(2·capacity, size + m) entries. Kept out of line
  /// so the per-tuple insert() stays as small as a fixed-capacity one.
  SLICK_REALTIME_ALLOW(
      "allocates only when the window outgrows its buffer — geometric "
      "growth is amortized O(1) per element, and a fixed-size Windowed "
      "slide never grows the buffer its identity pre-fill sized")
  [[gnu::noinline]] void Grow(std::size_t m) {
    const std::size_t live = size();
    const std::size_t cap = std::max(2 * cap_, live + m);
    std::vector<value_type> vals(cap);
    std::vector<value_type> aggs(cap);
    for (std::size_t k = 0; k < live; ++k) {
      const std::size_t i = Wrap(f_lo_ + k);
      vals[k] = std::move(vals_[i]);
      aggs[k] = std::move(aggs_[i]);
    }
    vals_ = std::move(vals);
    aggs_ = std::move(aggs);
    cap_ = cap;
    f_lo_ = 0;
  }

  // Exact ops re-derive the sequential recurrence bit-for-bit from the
  // vectorized scan; floating-point sums only match up to reassociation,
  // so the combine-equality postconditions are restricted to these.
  static constexpr bool kExactScan =
      std::is_integral_v<value_type> || Op::kSelective;

  /// Converts the back region's prefix aggregates to suffix aggregates in
  /// place and adopts it as the new front region. The back region starts
  /// at f_lo_ (the front must be empty) and may wrap; the wrapped tail
  /// [0, L2) holds the *newer* elements, so it is scanned first and its
  /// aggregate is carried into the older segment [f_lo_, f_lo_ + L1).
  void Flip() {
    SLICK_DCHECK(f_size_ == 0, "flip with non-empty front");
    const std::size_t m = b_size_;
    const std::size_t first = std::min(m, cap_ - f_lo_);
    value_type carry = Op::identity();
    if (first < m) {
      ops::SuffixScanValues<Op>(vals_.data(), aggs_.data(), m - first,
                                std::move(carry));
      carry = aggs_[0];
    }
    ops::SuffixScanValues<Op>(vals_.data() + f_lo_, aggs_.data() + f_lo_,
                              first, std::move(carry));
    f_size_ = m;
    b_size_ = 0;

    // Post-conditions (always-on, O(1)): the newest element's suffix
    // aggregate is its own value, and the oldest element's aggregate
    // continues the chain from its successor. Guarded against NaN payloads
    // (x == x filters them), since a NaN value is incomparable without
    // being wrong.
    if constexpr (kExactScan) {
      if (m > 0) {
        const std::size_t newest = Wrap(f_lo_ + m - 1);
        const value_type expect_new =
            Op::combine(vals_[newest], Op::identity());
        SLICK_CHECK(!(expect_new == expect_new) ||
                        aggs_[newest] == expect_new,
                    "flip postcondition: newest suffix aggregate");
        if (m > 1) {
          const value_type expect_head =
              Op::combine(vals_[f_lo_], aggs_[Wrap(f_lo_ + 1)]);
          SLICK_CHECK(!(expect_head == expect_head) ||
                          aggs_[f_lo_] == expect_head,
                      "flip postcondition: head suffix chain");
        }
      }
#if !defined(NDEBUG)
      // Debug builds verify the whole suffix chain.
      for (std::size_t k = 0; k + 1 < m; ++k) {
        const std::size_t i = Wrap(f_lo_ + k);
        const value_type expect = Op::combine(vals_[i], aggs_[Wrap(i + 1)]);
        SLICK_CHECK(!(expect == expect) || aggs_[i] == expect,
                    "flip postcondition: suffix chain");
      }
#endif
    }
  }

  std::vector<value_type> vals_;
  std::vector<value_type> aggs_;
  std::size_t cap_ = 0;     // buffer length (== vals_.size())
  std::size_t f_lo_ = 0;    // oldest front element
  std::size_t f_size_ = 0;  // front region length (starts at f_lo_)
  std::size_t b_size_ = 0;  // back region length (follows the front region)
};

}  // namespace slick::window
