#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ops/scan_kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::core {

/// The batch "staircase" of a total-order selective op (DESIGN.md §11),
/// found right-to-left with one absorbs test per element: element k of
/// src[0..m) survives the batch iff no later element absorbs it, which for
/// an order-induced absorbs is one test against the aggregate of
/// src[k+1..m). Fills `stair` with the survivors' indices, newest first
/// (the newest element always survives), and returns the whole-batch
/// aggregate. Requires m >= 1. SlickDeque (Non-Inv) without a survivor
/// kernel and MonotonicDeque admit their batches through it.
template <ops::TotalOrderSelectiveOp Op>
typename Op::value_type BatchStaircase(const typename Op::value_type* src,
                                       std::size_t m,
                                       std::vector<std::size_t>& stair) {
  stair.clear();
  stair.push_back(m - 1);
  typename Op::value_type suffix = src[m - 1];
  for (std::size_t k = m - 1; k-- > 0;) {
    if (!ops::Absorbs<Op>(suffix, src[k])) stair.push_back(k);
    suffix = Op::combine(src[k], suffix);
  }
  return suffix;
}

/// SlickDeque (Non-Inv) — the paper's Algorithm 2: final aggregation for
/// *non-invertible* (selective) operations. The window is represented by a
/// deque of (t, val) nodes that stays monotone under ⊕ from head to tail:
/// the head holds the answer for the whole window, and the answer for any
/// shorter range is the first node (from the head) whose partial falls
/// inside the range.
///
/// Per slide: the head node is dropped if it expires (it is exactly one
/// window old), then incoming partial `v` evicts every tail node it
/// dominates (combine(tail, v) == v — such nodes can never be an answer
/// again), and a new node is appended. Amortized cost is below 2
/// operations per slide for any input (2 - 2/n under uniform input). The
/// head expires before the prune, so the worst slide costs n - 1, at
/// probability exactly 2/n! under uniform input (§4.1 says n at 1/n!).
///
/// Storage (EXPERIMENTS.md, deviations): a window::SeqRing of nodes
/// instead of §4.2's chunked array, addressed by deque sequence numbers
/// (pops at the tail hand their seqs to the next push). The ring starts at
/// min(64, window) slots and doubles up to exactly `window`, its bound and
/// the most nodes the deque can hold, so the worst case stays n nodes. `t`
/// is the node's absolute slide index and n_ counts slides: a node expires
/// when t + window == n_ and lies within range r iff t + r >= n_.
///
/// Tail prune: for ops with a registered survivor kernel (Max/Min over
/// double/int64) one unrolled pass tests the 8 newest nodes and pops the
/// leading run of dominated ones with one subtraction — the pop count's
/// unpredictable exit branch is gone; a run of 8 continues in the exact
/// loop. Every other op keeps the exact loop, so instrumented ops
/// (CountingOp) count exactly the paper's domination tests.
///
/// Multi-query answers are produced by one walk over the deque with ranges
/// in descending order (query_multi), which is how the shared-plan engine
/// drives it. The paper starts that walk at the head; here every range
/// registered through the (window, ranges) constructor keeps an *answer
/// cursor* — a deque sequence number that is a lower bound on the seq of
/// its range's answer node — and the walk jumps ahead to it:
///  * each answer starts at max(cursor, previous answer node) and advances
///    while the node is older than the range, then stores the node's seq
///    back into the cursor. Nodes only age and pops at the head only raise
///    the front seq, so a cursor stays a lower bound across slides without
///    any upkeep;
///  * tail pops reuse seqs, so every tail pop-run in slide()/BulkSlide()
///    clamps the cursors to the post-pop end seq before the new node is
///    pushed there (nodes older than that seq were not touched);
///  * LoadState() resets every cursor to the front seq.
/// A cursor advances over each node at most once per push, so a registered
/// range costs amortized O(1) and zero ⊕ per answer instead of the head
/// walk's O(nodes older than the range) (EXPERIMENTS.md, deviations). An
/// unregistered range starts at the previous answer node — the paper's
/// walk. Cursors are `mutable` scratch behind the const query surface, so
/// query(range)/query_multi must not race each other on one instance;
/// query() reads only the head and stays safe to call concurrently.
///
/// The window-boundary test follows Algorithm 2 on absolute slide
/// indices; the in-range predicate fixes the off-by-one in the paper's
/// Answer Loop 1 listing, which as printed would include the
/// already-expired position `currPos - range` (its own worked Example 3,
/// Step 4 returns the value our predicate produces).
///
/// Note: combine(x, y) ∈ {x, y} (kSelective) is required, and value_type
/// must be equality-comparable for the domination test on line 16 of
/// Algorithm 2.
template <ops::SelectiveOp Op>
  requires std::equality_comparable<typename Op::value_type>
class SlickDequeNonInv {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  explicit SlickDequeNonInv(std::size_t window) : ring_(window) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
    ring_.reserve(kInitialCapacity);
  }

  /// Registers `ranges` (the Preparation phase's answers map keys, as for
  /// SlickDeque (Inv)): each distinct range gets an answer cursor, so its
  /// answers cost amortized O(1). Duplicates are collapsed.
  SlickDequeNonInv(std::size_t window, std::vector<std::size_t> ranges)
      : SlickDequeNonInv(window) {
    std::sort(ranges.begin(), ranges.end(), std::greater<>());
    ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
    cursors_.reserve(ranges.size());
    for (std::size_t r : ranges) {
      SLICK_CHECK(r >= 1 && r <= window, "registered range out of bounds");
      cursors_.push_back(Cursor{r, 0});
    }
  }

  /// Admits the newest partial: expire the head, evict dominated tail
  /// nodes, append.
  SLICK_REALTIME void slide(value_type v) {
    if (!ring_.empty() && ring_.front().t + window_size() == n_) {
      ring_.pop_front();
    }
    PruneTail(v);
    ring_.push_back(Node{n_, std::move(v)});
    ++n_;
  }

  /// Batch slide (DESIGN.md §11): expires every head node the n slides age
  /// out in one prefix pop, then admits the whole batch —
  ///  * total-order ops (ops::TotalOrderSelectiveOp): the batch's surviving
  ///    "staircase" is found right-to-left with one absorbs test per
  ///    element against the running suffix aggregate, and the pre-existing
  ///    tail is pruned once against the whole-batch aggregate (for an
  ///    order-induced absorbs, some batch element dominates a node iff the
  ///    batch aggregate does);
  ///  * other selective ops: the exact per-element stack loop, with only
  ///    the expiry test hoisted out of the loop.
  /// Both leave the deque identical to n sequential slide() calls.
  SLICK_REALTIME void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t window = window_size();
    if (n >= window) {
      // Only the trailing window elements can survive: restart empty.
      ring_.clear();
      ClampCursors();
      AppendBatch(src + (n - window), window, n_ + (n - window));
    } else {
      // The batch expires exactly the head prefix older than its last
      // partial's window (nodes age strictly head -> tail, so the loop
      // stops at the first survivor).
      while (!ring_.empty() && ring_.front().t + window < n_ + n) {
        ring_.pop_front();
      }
      AppendBatch(src, n, n_);
    }
    n_ += n;
  }

  /// Aggregate of the whole window: the head node's value. O(1), zero
  /// aggregate operations.
  SLICK_REALTIME result_type query() const {
    SLICK_CHECK(!ring_.empty(), "query before the first slide");
    return Op::lower(ring_.front().val);
  }

  /// Aggregate of the newest `range` partials: first in-range node from the
  /// head, or from the range's cursor when it is registered.
  SLICK_REALTIME result_type query(std::size_t range) const {
    SLICK_CHECK(!ring_.empty(), "query before the first slide");
    SLICK_CHECK(range >= 1 && range <= window_size(),
                "query range out of bounds");
    Cursor* c = cursors_.data();
    uint64_t seq = ring_.front_seq();
    std::size_t slot = ring_.head_slot();
    Seek(CursorFor(c, range), range, seq, slot);
    return Op::lower(ring_.at_slot(slot).val);
  }

  /// Answers several ranges with one walk towards the tail. `ranges_desc`
  /// must be sorted descending (larger ranges resolve nearer the head, as
  /// in the paper's shared plan). Results are appended to `out`.
  ///
  /// Each range is one Seek, from max(its cursor, the previous range's
  /// answer node): a smaller range's answer is never older than a larger
  /// one's, and consecutive ranges mostly share their answer node, so the
  /// seek usually does not move.
  SLICK_REALTIME_ALLOW(
      "out.resize appends into the caller's buffer — callers reuse one "
      "answer vector across slides, so growth amortizes to a steady-state "
      "no-op; the walk itself allocates nothing")
  void query_multi(const std::vector<std::size_t>& ranges_desc,
                   std::vector<result_type>& out) const {
    SLICK_CHECK(!ring_.empty(), "query before the first slide");
    const std::size_t n = ranges_desc.size();
#if !defined(NDEBUG)
    for (std::size_t i = 0; i < n; ++i) {
      SLICK_DCHECK(ranges_desc[i] >= 1 && ranges_desc[i] <= window_size(),
                   "query range out of bounds");
      SLICK_DCHECK(i == 0 || ranges_desc[i] <= ranges_desc[i - 1],
                   "ranges must be sorted descending");
    }
#endif
    const std::size_t base = out.size();
    out.resize(base + n);
    // Cursors are sorted descending like ranges_desc, so one forward
    // pointer finds every range's cursor.
    Cursor* c = cursors_.data();
    uint64_t seq = ring_.front_seq();
    std::size_t slot = ring_.head_slot();
    for (std::size_t i = 0; i < n; ++i) {
      Seek(CursorFor(c, ranges_desc[i]), ranges_desc[i], seq, slot);
      out[base + i] = Op::lower(ring_.at_slot(slot).val);
    }
  }

  /// The window: also the ring's bound.
  std::size_t window_size() const { return ring_.bound(); }

  /// Number of live deque nodes (the paper's input-dependent space term).
  std::size_t node_count() const { return ring_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + ring_.buffer_bytes() +
           stair_.capacity() * sizeof(std::size_t) +
           mask_.capacity() * sizeof(uint64_t) +
           cursors_.capacity() * sizeof(Cursor);
  }

  /// Checkpoints the deque (DSMS fault tolerance) in the SDN1 layout: the
  /// window, the circular write position and newest position, then the
  /// nodes as the ring's CAQ1 frame, each node's slide index written as
  /// its circular position. Trivially copyable values are written raw;
  /// other value types (AlphaMax's std::string) serialize node-wise through
  /// util::WriteVal.
  void SaveState(std::ostream& os) const
    requires util::Serializable<value_type>
  {
    const std::size_t window = window_size();
    util::WriteTag(os, kTag, 1);
    util::WritePod<uint64_t>(os, window);
    util::WritePod<uint64_t>(os, n_ % window);
    util::WritePod<uint64_t>(os, n_ == 0 ? 0 : (n_ - 1) % window);
    ring_.SaveState(os, [window](const Node& node) {
      return Node{node.t % window, node.val};
    });
  }

  /// Restores a checkpoint, replacing the current state. The frame is
  /// parsed and validated into temporaries and committed by move, so a
  /// rejected frame leaves this instance untouched. Accepted states:
  ///  * an empty deque only with write and newest position 0 (pristine);
  ///  * otherwise the write position one past the newest position;
  ///  * every node's position inside [0, window);
  ///  * ages strictly decreasing head → tail (each circular position at
  ///    most once, at most `window` nodes, head oldest);
  ///  * the tail node at the newest position (slide() always appends the
  ///    newest partial there);
  ///  * ⊕-monotonicity: no node absorbed by its newer neighbour — slide()
  ///    would have popped it, so its presence proves a corrupt value.
  bool LoadState(std::istream& is)
    requires util::Serializable<value_type>
  {
    uint64_t window = 0, pos = 0, cur = 0;
    if (!util::ExpectTag(is, kTag, 1) || !util::ReadPod(is, &window) ||
        !util::ReadPod(is, &pos) || !util::ReadPod(is, &cur) || window < 1 ||
        pos >= window || cur >= window) {
      return false;
    }
    window::SeqRing<Node> ring(static_cast<std::size_t>(window));
    ring.reserve(kInitialCapacity);
    if (!ring.LoadState(is)) return false;
    if (ring.empty() ? pos != 0 || cur != 0 : pos != (cur + 1) % window) {
      return false;
    }
    // The newest node gets slide index n - 1 with n = window + pos: every
    // age is below window, so every index stays non-negative, and n agrees
    // with pos and cur modulo window.
    const uint64_t n = ring.empty() ? 0 : window + pos;
    uint64_t prev_age = window;  // sentinel: above every legal age
    for (uint64_t s = ring.front_seq(); s != ring.end_seq(); ++s) {
      Node& node = ring[s];
      if (node.t >= window) return false;
      const uint64_t age =
          cur >= node.t ? cur - node.t : cur + window - node.t;
      if (age >= prev_age || (s != ring.front_seq() &&
                              ops::Absorbs<Op>(node.val, ring[s - 1].val))) {
        return false;
      }
      prev_age = age;
      node.t = n - 1 - age;
    }
    if (!ring.empty() && prev_age != 0) return false;
    ring_ = std::move(ring);
    n_ = n;
    for (Cursor& c : cursors_) c.seq = ring_.front_seq();
    return true;
  }

 private:
  /// A registered range and the lower bound on its answer node's seq.
  struct Cursor {
    std::size_t range;
    uint64_t seq;
  };

  struct Node {
    uint64_t t;  // absolute slide index (circular position in checkpoints)
    value_type val;

    // util::MemberSerde hooks, used by SaveState/LoadState when value_type
    // is not trivially copyable (trivial nodes are written raw). Only
    // instantiated on use.
    void SaveValue(std::ostream& os) const {
      util::WritePod(os, t);
      util::WriteVal(os, val);
    }
    bool LoadValue(std::istream& is) {
      return util::ReadPod(is, &t) && util::ReadVal(is, &val);
    }
  };

  static constexpr uint32_t kTag = util::MakeTag('S', 'D', 'N', '1');
  // Slots the ring starts with (fewer when the window is smaller).
  static constexpr std::size_t kInitialCapacity = 64;
  // Tail nodes the branch-free prune tests per pass.
  static constexpr std::size_t kProbe = 8;

  /// Admits `m` batch elements whose slide indices start at `start_t`,
  /// pruning dominated nodes. Precondition: every head node the batch
  /// expires is already gone.
  SLICK_REALTIME_ALLOW(
      "mask_.assign reuses the survivor-bitmap capacity after the first "
      "batch at each high-water size — amortized O(1) per element, no "
      "steady-state allocation")
  void AppendBatch(const value_type* src, std::size_t m, uint64_t start_t) {
    if constexpr (ops::TotalOrderSelectiveOp<Op> &&
                  ops::HasSurvivorKernel<Op>) {
      // Vectorized staircase: one right-to-left pass of the survivor-mask
      // kernel finds every batch element no later element absorbs (strict
      // dominance over the running suffix aggregate) and the whole-batch
      // aggregate in the same sweep.
      mask_.assign((m + 63) / 64, 0);
      const value_type total = ops::SurvivorKernel<Op>::Mask(src, m,
                                                             mask_.data());
      // The newest element always survives; the kernel's strict test can
      // miss it only when src[m-1] equals ⊕'s identity, so force its bit.
      mask_[(m - 1) >> 6] |= uint64_t{1} << ((m - 1) & 63);
      PruneTail(total);
      for (std::size_t w = 0; w < mask_.size(); ++w) {
        uint64_t bits = mask_[w];
        while (bits != 0) {
          const std::size_t k =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          ring_.push_back(Node{start_t + k, src[k]});
        }
      }
    } else if constexpr (ops::TotalOrderSelectiveOp<Op>) {
      // Prune the existing tail once against the whole-batch aggregate —
      // sequential processing pops exactly the tail nodes some batch
      // element absorbs, and ages keep the survivors' relative order.
      PruneTail(BatchStaircase<Op>(src, m, stair_));
      for (std::size_t t = stair_.size(); t-- > 0;) {
        const std::size_t k = stair_[t];
        ring_.push_back(Node{start_t + k, src[k]});
      }
    } else {
      // Ad-hoc absorbs predicates get the exact per-element stack loop.
      for (std::size_t k = 0; k < m; ++k) {
        PruneTail(src[k]);
        ring_.push_back(Node{start_t + k, src[k]});
      }
    }
  }

  /// Pops every tail node `v` absorbs. Popped seqs are reused by the next
  /// push, so cursors past the new end are clamped back to it.
  SLICK_REALTIME void PruneTail(const value_type& v) {
    if constexpr (ops::HasSurvivorKernel<Op>) {
      // Branch-free probe of the kProbe newest nodes: bit i is set iff v
      // absorbs the node i places before the tail, so the leading run of
      // set bits is what the exact loop would pop; bits past the deque's
      // size are masked off. Slots before a tail at kProbe or beyond are
      // read in place (stale ones included); nearer the ring's start,
      // probes past the size re-read the tail, so each slot needs only one
      // wrap even when the ring is smaller than the probe. The clamp runs
      // even when nothing pops: it is cheaper than a 50/50 branch.
      const std::size_t size = ring_.size();
      const std::size_t live = std::min(size, kProbe);
      const std::size_t cap = ring_.capacity();
      const std::size_t head = ring_.head_slot();
      const std::size_t end =
          head + size >= cap ? head + size - cap : head + size;
      unsigned bits = 0;
      for (std::size_t i = 0; i < kProbe; ++i) {
        std::size_t slot = end - 1 - i;
        if (end < kProbe) {
          slot = end + cap - 1 - (i < live ? i : 0);
          slot = slot >= cap ? slot - cap : slot;
        }
        bits |= static_cast<unsigned>(
                    ops::Absorbs<Op>(v, ring_.at_slot(slot).val))
                << i;
      }
      bits &= (1u << live) - 1;
      ring_.pop_back(static_cast<unsigned>(std::countr_one(bits)));
      if (bits == (1u << kProbe) - 1) PopAbsorbed(v);
      ClampCursors();
    } else if (!ring_.empty() && ops::Absorbs<Op>(v, ring_.back().val)) {
      ring_.pop_back();
      PopAbsorbed(v);
      ClampCursors();
    }
  }

  /// The exact tail pop loop (Algorithm 2, line 16).
  void PopAbsorbed(const value_type& v) {
    while (!ring_.empty() && ops::Absorbs<Op>(v, ring_.back().val)) {
      ring_.pop_back();
    }
  }

  SLICK_REALTIME void ClampCursors() {
    for (Cursor& c : cursors_) c.seq = std::min(c.seq, ring_.end_seq());
  }

  /// Advances `c` (a pointer into the descending cursors_) past every
  /// larger range; returns `range`'s cursor, or nullptr if unregistered.
  Cursor* CursorFor(Cursor*& c, std::size_t range) const {
    Cursor* const end = cursors_.data() + cursors_.size();
    while (c != end && c->range > range) ++c;
    return c != end && c->range == range ? c : nullptr;
  }

  /// Moves (seq, slot) to the first node at or after both it and the
  /// cursor, if any, within the newest `range` partials, and moves the
  /// cursor there. The newest node always qualifies, so the walk
  /// terminates.
  void Seek(Cursor* cursor, std::size_t range, uint64_t& seq,
            std::size_t& slot) const {
    if (cursor != nullptr && cursor->seq > seq) {
      seq = cursor->seq;
      slot = ring_.slot(seq);
    }
    while (ring_.at_slot(slot).t + range < n_) {
      ++seq;
      slot = ring_.next_slot(slot);
    }
    if (cursor != nullptr) cursor->seq = seq;
  }

  window::SeqRing<Node> ring_;  // the deque, head oldest; bound = window
  uint64_t n_ = 0;           // slides so far: the next partial's index
  std::vector<std::size_t> stair_;  // BulkSlide scratch: surviving indices
  std::vector<uint64_t> mask_;      // BulkSlide scratch: survivor bitmask
  // Registered ranges, descending, with their answer cursors; mutable so
  // the const query surface can advance them.
  mutable std::vector<Cursor> cursors_;
};

}  // namespace slick::core
