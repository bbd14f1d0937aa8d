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
#include "window/chunked_array_queue.h"

namespace slick::core {

/// SlickDeque (Non-Inv) — the paper's Algorithm 2: final aggregation for
/// *non-invertible* (selective) operations. The window is represented by a
/// deque of (pos, val) nodes, allocated in chunks, that stays monotone under
/// ⊕ from head to tail: the head holds the answer for the whole window, and
/// the answer for any shorter range is the first node (from the head) whose
/// position falls inside the range.
///
/// Per slide: the head node is dropped if it expires (its position is
/// exactly one window old), then incoming partial `v` evicts every tail
/// node it dominates (combine(tail, v) == v — such nodes can never be an
/// answer again), and a new node is appended. Amortized cost is below 2
/// operations per slide for any input; the worst case (a fully descending
/// window followed by a large value, probability 1/n! under uniform input)
/// costs n — see §4.1.
///
/// Multi-query answers are produced by one walk over the deque with ranges
/// in descending order (query_multi), which is how the shared-plan engine
/// drives it. The paper starts that walk at the head; here every range
/// registered through the (window, ranges) constructor keeps an *answer
/// cursor* — a deque sequence number that is a lower bound on the seq of
/// its range's answer node — and the walk jumps ahead to it:
///  * an answer starts at max(cursor, previous answer node + 1) and advances
///    while the node's age is >= the range, then stores the node's seq back
///    into the cursor. Ages only grow and pop_front only raises front_seq,
///    so a cursor stays a lower bound across slides without any upkeep;
///  * pop_back reuses seqs, so every tail pop-run in slide()/BulkSlide()
///    clamps the cursors to the post-pop end_seq() before the new node is
///    pushed there (nodes older than that seq were not touched);
///  * LoadState() resets every cursor to front_seq().
/// A cursor advances over each node at most once per push, so a registered
/// range costs amortized O(1) and zero ⊕ per answer instead of the head
/// walk's O(nodes older than the range) (EXPERIMENTS.md, deviations). An
/// unregistered range starts at the previous answer node + 1 — the paper's
/// walk. Cursors are `mutable` scratch behind the const query surface, so
/// query(range)/query_multi must not race each other on one instance;
/// query() reads only the head and stays safe to call concurrently.
///
/// Position bookkeeping (startPos and the window-boundary test) follows
/// Algorithm 2; the in-range predicates fix the off-by-one in the paper's
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

  explicit SlickDequeNonInv(std::size_t window, std::size_t chunk_capacity = 64)
      : window_(window), deque_(chunk_capacity) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
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
    if (!deque_.empty() && deque_.front().pos == pos_) deque_.pop_front();
    PruneTail(v);
    deque_.push_back(Node{pos_, std::move(v)});
    cur_ = pos_;
    pos_ = pos_ + 1 == window_ ? 0 : pos_ + 1;
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
    if (n >= window_) {
      // Only the trailing window_ elements can survive: restart empty.
      while (!deque_.empty()) deque_.pop_back();
      ClampCursors();
      AppendBatch(src + (n - window_), window_,
                  (pos_ + (n - window_)) % window_);
    } else {
      // Slide k expires the node of age window_-1-k, so the batch expires
      // exactly the head prefix with age >= window_-n (ages decrease
      // strictly head -> tail, so the loop stops at the first survivor).
      while (!deque_.empty() && AgeOf(deque_.front().pos) >= window_ - n) {
        deque_.pop_front();
      }
      AppendBatch(src, n, pos_);
    }
    cur_ = (pos_ + n - 1) % window_;
    pos_ = (pos_ + n) % window_;
  }

  /// Aggregate of the whole window: the head node's value. O(1), zero
  /// aggregate operations.
  SLICK_REALTIME result_type query() const {
    SLICK_CHECK(!deque_.empty(), "query before the first slide");
    return Op::lower(deque_.front().val);
  }

  /// Aggregate of the newest `range` partials: first in-range node from the
  /// head, or from the range's cursor when it is registered.
  SLICK_REALTIME result_type query(std::size_t range) const {
    SLICK_CHECK(!deque_.empty(), "query before the first slide");
    SLICK_CHECK(range >= 1 && range <= window_, "query range out of bounds");
    Cursor* c = cursors_.data();
    const uint64_t seq = Seek(CursorFor(c, range), deque_.front_seq(), range);
    return Op::lower(deque_[seq].val);
  }

  /// Answers several ranges with one walk towards the tail. `ranges_desc`
  /// must be sorted descending (larger ranges resolve nearer the head, as
  /// in the paper's shared plan). Results are appended to `out`.
  ///
  /// A node of age a (0 = newest partial) answers exactly the ranges r with
  /// r > a down to the age of the next-older node. Each block of still-open
  /// ranges starts at max(cursor of its first range, previous answer node
  /// + 1) and seeks the first node that range covers; the leading run of
  /// `ranges_desc[i..)` with r > age that this node answers is found by the
  /// vectorized PrefixCountGreater kernel and answered with one lower() and
  /// a fill, and the registered ranges of the run move their cursors there.
  SLICK_REALTIME_ALLOW(
      "out.resize appends into the caller's buffer — callers reuse one "
      "answer vector across slides, so growth amortizes to a steady-state "
      "no-op; the walk itself allocates nothing")
  void query_multi(const std::vector<std::size_t>& ranges_desc,
                   std::vector<result_type>& out) const {
    SLICK_CHECK(!deque_.empty(), "query before the first slide");
    const std::size_t n = ranges_desc.size();
    if (n == 0) return;
#if !defined(NDEBUG)
    for (std::size_t i = 0; i < n; ++i) {
      SLICK_DCHECK(ranges_desc[i] >= 1 && ranges_desc[i] <= window_,
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
    uint64_t next = deque_.front_seq();
    std::size_t i = 0;
    for (;;) {
      const uint64_t seq =
          Seek(CursorFor(c, ranges_desc[i]), next, ranges_desc[i]);
      const Node& node = deque_[seq];
      const std::size_t run = ops::kernels::PrefixCountGreater(
          ranges_desc.data() + i, n - i, AgeOf(node.pos));
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(base + i), run,
                  Op::lower(node.val));
      // The run's first range already moved its cursor in Seek; the rest
      // are answered by the same node.
      for (std::size_t k = i + 1; k < i + run; ++k) {
        if (Cursor* rc = CursorFor(c, ranges_desc[k])) rc->seq = seq;
      }
      i += run;
      // The newest node (age 0) answers every remaining range (r >= 1),
      // so the walk always terminates there at the latest.
      if (i == n) return;
      next = seq + 1;
    }
  }

  std::size_t window_size() const { return window_; }

  /// Number of live deque nodes (the paper's input-dependent space term).
  std::size_t node_count() const { return deque_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + deque_.memory_bytes() +
           stair_.capacity() * sizeof(std::size_t) +
           mask_.capacity() * sizeof(uint64_t) +
           cursors_.capacity() * sizeof(Cursor);
  }

  /// Checkpoints the deque (DSMS fault tolerance). Trivially copyable
  /// values keep the raw PR 1 byte layout; other value types (AlphaMax's
  /// std::string) serialize node-wise through util::WriteVal.
  void SaveState(std::ostream& os) const
    requires util::Serializable<value_type>
  {
    util::WriteTag(os, util::MakeTag('S', 'D', 'N', '1'), 1);
    util::WritePod<uint64_t>(os, window_);
    util::WritePod<uint64_t>(os, pos_);
    util::WritePod<uint64_t>(os, cur_);
    deque_.SaveState(os);
  }

  /// Restores a checkpoint, replacing the current state.
  bool LoadState(std::istream& is)
    requires util::Serializable<value_type>
  {
    if (!util::ExpectTag(is, util::MakeTag('S', 'D', 'N', '1'), 1)) {
      return false;
    }
    uint64_t window = 0, pos = 0, cur = 0;
    if (!util::ReadPod(is, &window) || !util::ReadPod(is, &pos) ||
        !util::ReadPod(is, &cur) || window < 1 || pos >= window ||
        cur >= window) {
      return false;
    }
    // Restore into a temporary so a rejected payload leaves this instance
    // untouched (a caller that ignores the false return keeps a coherent
    // aggregator instead of a half-committed one).
    window::ChunkedArrayQueue<Node> restored;
    if (!restored.LoadState(is)) return false;
    if (!ValidateRestoredDeque(restored, static_cast<std::size_t>(window),
                               static_cast<std::size_t>(pos),
                               static_cast<std::size_t>(cur))) {
      return false;
    }
    deque_ = std::move(restored);
    window_ = static_cast<std::size_t>(window);
    pos_ = static_cast<std::size_t>(pos);
    cur_ = static_cast<std::size_t>(cur);
    for (Cursor& c : cursors_) c.seq = deque_.front_seq();
    return true;
  }

 private:
  /// A registered range and the lower bound on its answer node's seq.
  struct Cursor {
    std::size_t range;
    uint64_t seq;
  };

  struct Node {
    std::size_t pos;  // circular position in [0, window)
    value_type val;

    // util::MemberSerde hooks, used by ChunkedArrayQueue::SaveState when
    // value_type is not trivially copyable (trivial nodes are written raw,
    // preserving the PR 1 layout). Only instantiated on use.
    void SaveValue(std::ostream& os) const {
      util::WritePod(os, pos);
      util::WriteVal(os, val);
    }
    bool LoadValue(std::istream& is) {
      return util::ReadPod(is, &pos) && util::ReadVal(is, &val);
    }
  };

  /// Cross-validates a deque restored by LoadState against Algorithm 2's
  /// invariants before the header fields are committed. A corrupt payload
  /// that only passed the header checks would otherwise poison AgeOf() and
  /// the expiry test on later slides. Accepted states:
  ///  * empty deque only for a pristine instance (pos == cur == 0);
  ///  * every node's pos inside [0, window);
  ///  * ages strictly decreasing head → tail (each circular position at
  ///    most once, at most `window` nodes, head oldest);
  ///  * the tail node at position `cur` (slide() always appends the newest
  ///    partial there);
  ///  * ⊕-monotonicity: no node absorbed by its newer neighbour — slide()
  ///    would have popped it, so its presence proves a corrupt value.
  static bool ValidateRestoredDeque(
      const window::ChunkedArrayQueue<Node>& deque, std::size_t window,
      std::size_t pos, std::size_t cur) {
    if (deque.empty()) return pos == 0 && cur == 0;
    const auto age_of = [&](std::size_t p) {
      return cur >= p ? cur - p : cur + window - p;
    };
    std::size_t prev_age = window;  // sentinel: above every legal age
    for (uint64_t s = deque.front_seq(); s != deque.end_seq(); ++s) {
      const Node& node = deque[s];
      if (node.pos >= window) return false;
      const std::size_t age = age_of(node.pos);
      if (age >= prev_age) return false;
      if (s != deque.front_seq() &&
          ops::Absorbs<Op>(node.val, deque[s - 1].val)) {
        return false;
      }
      prev_age = age;
    }
    return deque.back().pos == cur;
  }

  /// Slides-ago of the partial at circular position `pos` (0 = newest).
  /// Equivalent to Algorithm 2's startPos/boundaryCrossed test: the node is
  /// within range r iff AgeOf(pos) < r.
  std::size_t AgeOf(std::size_t pos) const {
    return cur_ >= pos ? cur_ - pos : cur_ + window_ - pos;
  }

  /// Admits `m` batch elements whose circular positions start at
  /// `start_pos`, pruning dominated nodes. Precondition: every head node
  /// the batch expires is already gone.
  SLICK_REALTIME_ALLOW(
      "mask_.assign reuses the survivor-bitmap capacity after the first "
      "batch at each high-water size — amortized O(1) per element, no "
      "steady-state allocation")
  void AppendBatch(const value_type* src, std::size_t m,
                   std::size_t start_pos) {
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
          deque_.push_back(Node{(start_pos + k) % window_, src[k]});
        }
      }
    } else if constexpr (ops::TotalOrderSelectiveOp<Op>) {
      // Right-to-left suffix scan: element k survives the batch iff no
      // later batch element absorbs it, which for an order-induced absorbs
      // is one test against the aggregate of src[k+1..m).
      stair_.clear();
      stair_.push_back(m - 1);  // the newest element always survives
      value_type suffix = src[m - 1];
      for (std::size_t k = m - 1; k-- > 0;) {
        if (!ops::Absorbs<Op>(suffix, src[k])) stair_.push_back(k);
        suffix = Op::combine(src[k], suffix);
      }
      // suffix now aggregates the whole batch; prune the existing tail
      // against it once — sequential processing pops exactly the tail
      // nodes some batch element absorbs, and ages keep the survivors'
      // relative order unchanged.
      PruneTail(suffix);
      for (std::size_t t = stair_.size(); t-- > 0;) {
        const std::size_t k = stair_[t];
        deque_.push_back(Node{(start_pos + k) % window_, src[k]});
      }
    } else {
      // Ad-hoc absorbs predicates get the exact per-element stack loop.
      for (std::size_t k = 0; k < m; ++k) {
        PruneTail(src[k]);
        deque_.push_back(Node{(start_pos + k) % window_, src[k]});
      }
    }
  }

  /// Pops every tail node `v` absorbs. Popped seqs are reused by the next
  /// push, so cursors past the new end are clamped back to it.
  SLICK_REALTIME void PruneTail(const value_type& v) {
    if (deque_.empty() || !ops::Absorbs<Op>(v, deque_.back().val)) return;
    do {
      deque_.pop_back();
    } while (!deque_.empty() && ops::Absorbs<Op>(v, deque_.back().val));
    ClampCursors();
  }

  SLICK_REALTIME void ClampCursors() {
    const uint64_t end = deque_.end_seq();
    for (Cursor& c : cursors_) c.seq = std::min(c.seq, end);
  }

  /// Advances `c` (a pointer into the descending cursors_) past every
  /// larger range; returns `range`'s cursor, or nullptr if unregistered.
  Cursor* CursorFor(Cursor*& c, std::size_t range) const {
    Cursor* const end = cursors_.data() + cursors_.size();
    while (c != end && c->range > range) ++c;
    return c != end && c->range == range ? c : nullptr;
  }

  /// Seq of the first node at or after `from` (and the cursor, if any)
  /// whose position lies within the newest `range` positions; moves the
  /// cursor there. The newest node (age 0) always qualifies, so the walk
  /// terminates.
  uint64_t Seek(Cursor* cursor, uint64_t from, std::size_t range) const {
    uint64_t seq = cursor != nullptr ? std::max(from, cursor->seq) : from;
    while (AgeOf(deque_[seq].pos) >= range) ++seq;
    if (cursor != nullptr) cursor->seq = seq;
    return seq;
  }

  std::size_t window_;
  window::ChunkedArrayQueue<Node> deque_;
  std::vector<std::size_t> stair_;  // BulkSlide scratch: surviving indices
  std::vector<uint64_t> mask_;      // BulkSlide scratch: survivor bitmask
  // Registered ranges, descending, with their answer cursors; mutable so
  // the const query surface can advance them.
  mutable std::vector<Cursor> cursors_;
  std::size_t pos_ = 0;  // write position of the next partial
  std::size_t cur_ = 0;  // position of the newest partial
};

}  // namespace slick::core

