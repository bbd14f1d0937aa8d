#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/range_index.h"
#include "ops/scan_kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::core {

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
/// Two faces share the one deque:
///  * fixed window, `SlickDequeNonInv(window)`: slide()/BulkSlide() and
///    the multi-query surface below. The head expires once it is one
///    window old, i.e. FIFO expiry with oldest = n - window;
///  * FIFO, `SlickDequeNonInv()`: insert()/evict() and BulkInsert()/
///    BulkEvict() (the window::FifoAggregator shape) move an explicit
///    oldest arrival index, so the window grows and shrinks at will. Its
///    ring is unbounded and its checkpoint is the MON1 frame.
/// slide() is evict-when-full, then insert, so both faces keep Table 1's
/// cost. A face's instance takes only that face's calls.
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
/// The registered face, `SlickDequeNonInv(window, ranges)` (the face the
/// shared-plan engine drives), adds two things to the fixed face:
///  * an *answer cursor* per registered range, found in O(1) through a
///    RangeIndex. A cursor holds its answer node's deque sequence number
///    and value, and the last slide count for which that node stays the
///    answer (its slide index + range). Until then an answer is one load;
///    after it, the cursor seeks forward from its node. Nodes only age and
///    head pops only raise the front seq, so the seek never moves
///    backwards. Tail pops reuse seqs: every tail pop-run clears the cache
///    of each cursor whose node it popped (its seq is clamped to the
///    post-pop end seq, where the next node is pushed), and LoadState()
///    resets every cursor to the front seq. A cursor advances over each
///    node at most once per push, so a registered answer costs amortized
///    O(1) and zero ⊕ instead of the head walk's O(nodes older than the
///    range) (EXPERIMENTS.md, deviations);
///  * for ops with a survivor kernel (Max/Min over double/int64), a
///    *stage*: slide() expires the head and appends the partial to a
///    buffer of min(64, window, smallest registered range - 1) slots,
///    allocated at construction, and a full stage is admitted in one
///    AppendBatch call — BulkSlide's vectorized staircase, which leaves
///    the deque exactly as per-slide admission does. The stage keeps its
///    own aggregate T, built with the absorbs rule (the newer value wins
///    ties). An answer whose committed node is c reads
///    Absorbs(T, c) ? T : c: the staircase would have popped c iff T
///    absorbs it, as the committed nodes from c to the tail are monotone.
///    For the same reason a head T absorbs is left for the fold's prune
///    instead of expiring, so the deque's seqs match too (DESIGN.md §11).
///    A value the order cannot rank (NaN, which nothing absorbs) breaks
///    that monotonicity, so it folds the stage and is admitted per slide,
///    and slides stay per-slide until it expires. The stage is never
///    deeper than the smallest registered range minus one, so a
///    registered answer never folds it. SaveState(), node_count() and
///    BulkSlide() fold the stage first, so checkpoint bytes, node counts
///    and batch results equal per-slide admission's; LoadState() discards
///    the stage and the cursor caches.
/// The unregistered fixed face, the FIFO face and ops without a survivor
/// kernel (CountingOp, ArgMax, AlphaMax) admit per slide, as Algorithm 2.
///
/// query_multi() answers several ranges, descending, in one pass: a
/// registered range reads its cursor, an unregistered one continues the
/// paper's head-to-tail walk from the previous answer node. Cursors, the
/// stage and the deque are `mutable` so the const surface can seek and
/// fold, so query(range), query_multi(), node_count() and SaveState()
/// must not race each other on one instance; query() only reads, so
/// concurrent query() calls stay safe.
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

  /// FIFO face: an empty window on an unbounded ring. The ring still
  /// starts at kInitialCapacity slots, because the tail probe reads them.
  SlickDequeNonInv() { ring_.reserve(kInitialCapacity); }

  explicit SlickDequeNonInv(std::size_t window) : ring_(window) {
    SLICK_CHECK(window >= 1, "window must hold at least one partial");
    ring_.reserve(kInitialCapacity);
  }

  /// Registers `ranges` (the Preparation phase's answers map keys, as for
  /// SlickDeque (Inv)): each distinct range gets an answer cursor, so its
  /// answers cost O(1), and ops with a survivor kernel get a stage of
  /// min(64, window, smallest range - 1) slots (none below 2). Duplicates
  /// are collapsed.
  SlickDequeNonInv(std::size_t window, std::vector<std::size_t> ranges)
      : SlickDequeNonInv(window) {
    std::sort(ranges.begin(), ranges.end(), std::greater<>());
    ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
    if (ranges.empty()) return;
    cursors_.reserve(ranges.size());
    for (std::size_t r : ranges) {
      SLICK_CHECK(r >= 1 && r <= window, "registered range out of bounds");
      cursors_.push_back(Cursor{r, 0, 0, Op::identity()});
    }
    index_ = RangeIndex(cursors_);
    if constexpr (kStages) {
      const std::size_t depth =
          std::min({kMaxStage, window, ranges.back() - 1});
      if (depth >= 2) {
        stage_.resize(depth);
        stage_from_ = 0;
      }
    }
  }

  /// Admits the newest partial: expire the head, evict dominated tail
  /// nodes, append — or, on a staging face, stage it (SlideStaged).
  SLICK_REALTIME void slide(value_type v) {
    if constexpr (kStages) {
      if (stage_from_ != kNoStage && SlideStaged(v)) return;
    }
    if (!ring_.empty() && ring_.front().t + window_size() == n_) {
      ring_.pop_front();
    }
    PruneTail(v);
    ring_.push_back(Node{n_, std::move(v)});
    ++n_;
  }

  /// Batch slide (DESIGN.md §11): expires every head node the n slides age
  /// out in one prefix pop, then admits the whole batch —
  ///  * ops with a survivor kernel (Max/Min over double/int64): the
  ///    batch's surviving "staircase" is found right-to-left in one pass
  ///    of the survivor-mask kernel, and the pre-existing tail is pruned
  ///    once against the whole-batch aggregate (for an order-induced
  ///    absorbs, some batch element dominates a node iff the batch
  ///    aggregate does);
  ///  * other selective ops: the exact per-element stack loop, with only
  ///    the expiry test hoisted out of the loop.
  /// Both leave the deque identical to n sequential slide() calls.
  SLICK_REALTIME void BulkSlide(const value_type* src, std::size_t n) {
    if (n == 0) return;
    Fold();
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
    if constexpr (kStages) {
      if (stage_from_ != kNoStage) NoteUnranked(n_ - n);
    }
  }

  /// FIFO face: admits the newest partial (slide() without the expiry).
  SLICK_REALTIME void insert(value_type v) {
    PruneTail(v);
    ring_.push_back(Node{n_, std::move(v)});
    ++n_;
  }

  /// FIFO face: expires the oldest element.
  SLICK_REALTIME void evict() { BulkEvict(1); }

  /// FIFO face: admits `n` partials through BulkSlide's batch path. The
  /// deque ends as n insert() calls leave it.
  SLICK_REALTIME void BulkInsert(const value_type* src, std::size_t n) {
    if (n == 0) return;
    AppendBatch(src, n, n_);
    n_ += n;
  }

  /// FIFO face: expires the `n` oldest elements with one jump of the
  /// oldest arrival index, then one head-prefix pop (nodes age strictly
  /// head -> tail, so the expired ones form a prefix).
  SLICK_REALTIME void BulkEvict(std::size_t n) {
    SLICK_CHECK(n <= size(), "bulk evict larger than window");
    oldest_ += n;
    while (!ring_.empty() && ring_.front().t < oldest_) ring_.pop_front();
  }

  /// Aggregate of the whole window: the head node's value (or the stage's
  /// aggregate when it absorbs the head), or ⊕'s identity while the window
  /// is empty. O(1), zero aggregate operations.
  SLICK_REALTIME result_type query() const {
    if (ring_.empty()) {
      return Op::lower(staged_ != 0 ? stage_top_ : Op::identity());
    }
    return Op::lower(WithStage(ring_.front().val));
  }

  /// Aggregate of the newest `range` partials: the range's cursor when it
  /// is registered, else the first in-range node from the head.
  SLICK_REALTIME result_type query(std::size_t range) const {
    SLICK_CHECK(!ring_.empty() || staged_ != 0, "query before the first slide");
    SLICK_CHECK(range >= 1 && range <= window_size(),
                "query range out of bounds");
    if (Cursor* c = FindCursor(range)) return Op::lower(Answer(*c));
    uint64_t seq = ring_.front_seq();
    std::size_t slot = ring_.head_slot();
    return Op::lower(Walk(range, seq, slot));
  }

  /// Answers several ranges in one pass. `ranges_desc` must be sorted
  /// descending (larger ranges resolve nearer the head, as in the paper's
  /// shared plan). Results are appended to `out`.
  ///
  /// A registered range reads its cursor. An unregistered one walks from
  /// the previous range's answer node: a smaller range's answer is never
  /// older than a larger one's, and consecutive ranges mostly share their
  /// answer node, so the walk usually does not move.
  SLICK_REALTIME_ALLOW(
      "out.resize appends into the caller's buffer — callers reuse one "
      "answer vector across slides, so growth amortizes to a steady-state "
      "no-op; the walk itself allocates nothing")
  void query_multi(const std::vector<std::size_t>& ranges_desc,
                   std::vector<result_type>& out) const {
    SLICK_CHECK(!ring_.empty() || staged_ != 0, "query before the first slide");
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
    uint64_t seq = ring_.front_seq();
    std::size_t slot = ring_.head_slot();
    for (std::size_t i = 0; i < n; ++i) {
      if (Cursor* c = FindCursor(ranges_desc[i])) {
        out[base + i] = Op::lower(Answer(*c));
        if (!ring_.empty() && c->seq > seq) {
          seq = c->seq;
          slot = ring_.slot(seq);
        }
      } else {
        out[base + i] = Op::lower(Walk(ranges_desc[i], seq, slot));
      }
    }
  }

  /// The window: also the ring's bound (unbounded on the FIFO face).
  std::size_t window_size() const { return ring_.bound(); }

  /// Live partials: the FIFO face's live count; on the fixed face, the
  /// partials slid in so far, up to the window.
  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<uint64_t>(n_ - oldest_, window_size()));
  }

  /// Number of live deque nodes (the paper's input-dependent space term).
  /// Folds the stage first.
  std::size_t node_count() const {
    Fold();
    return ring_.size();
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + ring_.buffer_bytes() +
           mask_.capacity() * sizeof(uint64_t) +
           cursors_.capacity() * sizeof(Cursor) + index_.bytes() +
           stage_.capacity() * sizeof(value_type);
  }

  /// Checkpoints the deque (DSMS fault tolerance). The fixed face writes
  /// the SDN1 layout: the window, the circular write position and newest
  /// position, then the nodes as the ring's CAQ1 frame, each node's slide
  /// index written as its circular position. The FIFO face writes MON1:
  /// the nodes' CAQ1 frame with their arrival indices, then the next and
  /// the oldest live arrival index and the live count. Trivially copyable
  /// values are written raw; other value types (AlphaMax's std::string)
  /// serialize node-wise through util::WriteVal. The stage is folded first,
  /// so the bytes are per-slide admission's.
  void SaveState(std::ostream& os) const
    requires util::Serializable<value_type>
  {
    Fold();
    if (fifo()) {
      util::WriteTag(os, kFifoTag, 1);
      ring_.SaveState(os);
      util::WritePod(os, n_);
      util::WritePod(os, oldest_);
      util::WritePod<uint64_t>(os, n_ - oldest_);
      return;
    }
    const std::size_t window = window_size();
    util::WriteTag(os, kTag, 1);
    util::WritePod<uint64_t>(os, window);
    util::WritePod<uint64_t>(os, n_ % window);
    util::WritePod<uint64_t>(os, n_ == 0 ? 0 : (n_ - 1) % window);
    ring_.SaveState(os, [window](const Node& node) {
      return Node{node.t % window, node.val};
    });
  }

  /// Restores a checkpoint of this instance's face, replacing the current
  /// state. The frame is parsed and validated into temporaries and
  /// committed by move, so a rejected frame leaves this instance untouched.
  /// Accepted SDN1 states (MON1: LoadFifo):
  ///  * an empty deque only with write and newest position 0 (pristine);
  ///  * otherwise the write position one past the newest position;
  ///  * every node's position inside [0, window);
  ///  * ages strictly decreasing head → tail (each circular position at
  ///    most once, at most `window` nodes, head oldest);
  ///  * the tail node at the newest position (slide() always appends the
  ///    newest partial there);
  ///  * ⊕-monotonicity: no node absorbed by its newer neighbour — slide()
  ///    would have popped it, so its presence proves a corrupt value.
  /// The stage and the cursor caches are discarded.
  bool LoadState(std::istream& is)
    requires util::Serializable<value_type>
  {
    if (fifo()) return LoadFifo(is);
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
    uint64_t stage_from = 0;
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
      if (!ops::Absorbs<Op>(node.val, node.val)) stage_from = node.t + window;
    }
    if (!ring.empty() && prev_age != 0) return false;
    ring_ = std::move(ring);
    n_ = n;
    staged_ = 0;
    // A staged partial must not expire: the stage fits the restored window.
    if (stage_.size() > window) stage_.resize(window < 2 ? 0 : window);
    stage_from_ = stage_.empty() ? kNoStage : stage_from;
    for (Cursor& c : cursors_) c = Cursor{c.range, ring_.front_seq(), 0, c.val};
    return true;
  }

 private:
  /// A registered range's answer cursor: a lower bound on its answer
  /// node's seq and, while the cache is valid (slide count <= until), that
  /// node's seq and value exactly.
  struct Cursor {
    std::size_t range;
    uint64_t seq;
    uint64_t until;  // 0: no cached answer
    value_type val;
  };

  struct Node {
    uint64_t t;  // absolute slide index (circular position in SDN1)
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
  static constexpr uint32_t kFifoTag = util::MakeTag('M', 'O', 'N', '1');
  // Slots the ring starts with (fewer when the window is smaller).
  static constexpr std::size_t kInitialCapacity = 64;
  // Tail nodes the branch-free prune tests per pass.
  static constexpr std::size_t kProbe = 8;
  // The ops whose registered face stages its slides, and the most slides
  // a stage holds.
  static constexpr bool kStages =
      ops::TotalOrderSelectiveOp<Op> && ops::HasSurvivorKernel<Op>;
  static constexpr std::size_t kMaxStage = 64;
  // stage_from_ on a face that never stages.
  static constexpr uint64_t kNoStage = UINT64_MAX;

  /// The face: only the FIFO face's ring is unbounded.
  bool fifo() const {
    return ring_.bound() == window::SeqRing<Node>::kUnbounded;
  }

  /// Restores a MON1 frame (FIFO face). Accepted states:
  ///  * live == next - oldest;
  ///  * arrival indices strictly increasing head -> tail, inside
  ///    [oldest, next);
  ///  * the tail node is the newest element when the window is not empty
  ///    (insert() always appends it);
  ///  * ⊕-monotonicity, as for SDN1.
  bool LoadFifo(std::istream& is) {
    window::SeqRing<Node> ring;
    ring.reserve(kInitialCapacity);
    uint64_t next = 0, oldest = 0, live = 0;
    if (!util::ExpectTag(is, kFifoTag, 1) || !ring.LoadState(is) ||
        !util::ReadPod(is, &next) || !util::ReadPod(is, &oldest) ||
        !util::ReadPod(is, &live) || oldest > next || live != next - oldest) {
      return false;
    }
    for (uint64_t s = ring.front_seq(); s != ring.end_seq(); ++s) {
      const Node& node = ring[s];
      if (node.t < oldest || node.t >= next) return false;
      if (s != ring.front_seq() &&
          (node.t <= ring[s - 1].t ||
           ops::Absorbs<Op>(node.val, ring[s - 1].val))) {
        return false;
      }
    }
    if (live != 0 && (ring.empty() || ring.back().t != next - 1)) {
      return false;
    }
    ring_ = std::move(ring);
    n_ = next;
    oldest_ = oldest;
    return true;
  }

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
      // The exact pop loop, once per batch: leaving the probe to the
      // per-element paths keeps it inlined in slide().
      PopAbsorbed(total);
      ClampCursors();
      for (std::size_t w = 0; w < mask_.size(); ++w) {
        uint64_t bits = mask_[w];
        while (bits != 0) {
          const std::size_t k =
              (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          ring_.push_back(Node{start_t + k, src[k]});
        }
      }
    } else {
      // Every other op gets the exact per-element stack loop.
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

  /// Clears the cache of every cursor whose node a tail pop-run removed,
  /// and clamps its seq to the post-pop end seq (the next push's).
  SLICK_REALTIME void ClampCursors() {
    const uint64_t end = ring_.end_seq();
    for (Cursor& c : cursors_) {
      if (c.seq >= end) c = Cursor{c.range, end, 0, c.val};
    }
  }

  /// Admits the staged partials through AppendBatch. Folding changes no
  /// answer, only where the partials live, so the const observers fold:
  /// everything AppendBatch writes (the deque, the survivor bitmap and the
  /// cursors) is mutable. Out of line: it runs once per stage, and slide()
  /// stays small.
  [[gnu::noinline]] void Fold() const {
    if constexpr (kStages) {
      if (staged_ == 0) return;
      const std::size_t m = staged_;
      staged_ = 0;
      const_cast<SlickDequeNonInv*>(this)->AppendBatch(stage_.data(), m,
                                                       n_ - m);
    }
  }

  /// slide() on a staging face. A rankable partial, once every unrankable
  /// one has expired, is staged: the head expires, `v` joins the stage,
  /// and a full stage is folded. A head the stage absorbs is not expired:
  /// per-slide admission popped it, and every node after it, at the tail,
  /// which the fold's prune repeats. Any other partial folds the stage and
  /// returns false, for slide() to admit it per slide. Out of line, with
  /// `v` by value: slide()'s per-slide path on the other faces then keeps
  /// `v` in a register instead of spilling it.
  [[gnu::noinline]] SLICK_REALTIME bool SlideStaged(value_type v) {
    if (n_ >= stage_from_ && ops::Absorbs<Op>(v, v)) {
      if (!ring_.empty() && ring_.front().t + window_size() == n_ &&
          !StageAbsorbs(ring_.front().val)) {
        ring_.pop_front();
      }
      if (staged_ == 0 || ops::Absorbs<Op>(v, stage_top_)) stage_top_ = v;
      stage_[staged_++] = std::move(v);
      ++n_;
      if (staged_ == stage_.size()) Fold();
      return true;
    }
    Fold();
    if (!ops::Absorbs<Op>(v, v)) stage_from_ = n_ + window_size();
    return false;
  }

  /// After a batch slide on a staging face: slide() stages again only once
  /// the newest unrankable partial from slide index `first` on has
  /// expired. Such partials are never popped, so the newest one is the
  /// newest node from `first` on that does not absorb itself.
  void NoteUnranked(uint64_t first) {
    for (uint64_t s = ring_.end_seq(); s-- != ring_.front_seq();) {
      const Node& node = ring_[s];
      if (node.t < first) return;
      if (!ops::Absorbs<Op>(node.val, node.val)) {
        stage_from_ = node.t + window_size();
        return;
      }
    }
  }

  /// True iff the stage's aggregate T absorbs the committed node value `c`:
  /// the fold's prune pops c, and every node after it.
  bool StageAbsorbs(const value_type& c) const {
    if constexpr (kStages) {
      return staged_ != 0 && ops::Absorbs<Op>(stage_top_, c);
    } else {
      return false;
    }
  }

  /// The answer whose committed node value is `c`: T if the fold pops c,
  /// else c.
  const value_type& WithStage(const value_type& c) const {
    return StageAbsorbs(c) ? stage_top_ : c;
  }

  Cursor* FindCursor(std::size_t range) const {
    return cursors_.empty() ? nullptr : index_.Find(cursors_, range);
  }

  /// A registered range's answer: the cached node until the slide count
  /// passes the cache's bound, then a seek forward from the cursor. (A
  /// valid cache's node is live, so only a refresh can find no nodes.)
  const value_type& Answer(Cursor& c) const {
    if (n_ > c.until) [[unlikely]] {
      if (ring_.empty()) return stage_top_;  // the first stage is filling
      Refresh(c);
    }
    return WithStage(c.val);
  }

  /// Seeks `c` forward to its range's first committed node and caches it.
  /// Out of line: on the benchmark's acq-max plan about 3% of answers
  /// refresh, and keeping the seek out of the engine's loop is worth ~5%.
  [[gnu::noinline]] void Refresh(Cursor& c) const {
    uint64_t seq = std::max(c.seq, ring_.front_seq());
    std::size_t slot = ring_.slot(seq);
    Seek(c.range, seq, slot);
    const Node& node = ring_.at_slot(slot);
    c = Cursor{c.range, seq, node.t + c.range, node.val};
  }

  /// An unregistered range's answer: inside the stage, the stage's newest
  /// ⊕-maximal partial there; otherwise the committed node Seek() finds
  /// from (seq, slot).
  const value_type& Walk(std::size_t range, uint64_t& seq,
                         std::size_t& slot) const {
    if constexpr (kStages) {
      if (range <= staged_) {
        std::size_t best = staged_ - range;
        for (std::size_t k = best + 1; k < staged_; ++k) {
          if (ops::Absorbs<Op>(stage_[k], stage_[best])) best = k;
        }
        return stage_[best];
      }
      if (ring_.empty()) return stage_top_;
    }
    Seek(range, seq, slot);
    return WithStage(ring_.at_slot(slot).val);
  }

  /// Moves (seq, slot) to the first committed node at or after it within
  /// the newest `range` partials. A range longer than the stage always
  /// reaches the newest node, so the walk terminates.
  void Seek(std::size_t range, uint64_t& seq, std::size_t& slot) const {
    while (ring_.at_slot(slot).t + range < n_) {
      ++seq;
      slot = ring_.next_slot(slot);
    }
  }

  // The deque, head oldest; bound = window. Mutable so const observers can
  // fold the stage into it.
  mutable window::SeqRing<Node> ring_;
  uint64_t n_ = 0;      // slides so far, staged ones included
  uint64_t oldest_ = 0;  // FIFO face: the oldest live partial's index
  mutable std::vector<uint64_t> mask_;  // batch scratch: survivor bitmask
  // Registered ranges, descending, with their answer cursors; mutable so
  // the const query surface can advance them.
  mutable std::vector<Cursor> cursors_;
  RangeIndex index_;  // range -> position in cursors_
  // The stage (registered face, kStages ops only; empty otherwise): its
  // slots, how many hold partials, their aggregate T, and the slide count
  // from which slide() stages (after the newest unrankable partial has
  // expired; kNoStage without a stage).
  std::vector<value_type> stage_;
  mutable std::size_t staged_ = 0;
  value_type stage_top_ = Op::identity();
  uint64_t stage_from_ = kNoStage;
};

}  // namespace slick::core
