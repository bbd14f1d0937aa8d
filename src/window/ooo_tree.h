#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ops/kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"

namespace slick::window {

/// A timestamped partial aggregate: the element of the spans
/// OooTree::BulkInsert takes.
template <typename V>
struct Timed {
  uint64_t t = 0;  ///< event time
  V v{};           ///< lifted partial aggregate
};

/// OooTree — finger-B-tree final aggregator for *out-of-order* event-time
/// streams, in the style of FiBA ("Sub-O(log n) Out-of-Order Sliding-Window
/// Aggregation") with the bulk-eviction API of its successor paper
/// (PAPERS.md). This is the DESIGN.md §13 structure: where SlickDeque
/// (§3.1) assumes tuples arrive in window order, OooTree accepts
/// `Insert(t, v)` at any position and still answers window aggregates
/// without inverse — only associativity is required, so every op class
/// (invertible, selective, non-commutative) is supported.
///
/// Structure. A classic B-tree keyed by timestamp (all nodes carry
/// entries), augmented with:
///   - *fingers*: persistent pointers to the leftmost and rightmost leaf.
///     Searches start at the nearer finger and climb just far enough for
///     the target to be covered, so an insert at out-of-order distance d
///     costs O(log d) instead of O(log n); in-order appends hit the right
///     finger directly in amortized O(1).
///   - *position-dependent aggregates*: interior nodes store the full
///     aggregate of their subtree ("up-agg"); nodes on the left (right)
///     spine exclude their leftmost (rightmost) child, and the root
///     excludes both. An in-order append therefore changes only the right
///     finger's own aggregate — no ancestor propagates — which is what
///     makes the O(1) amortized append work. An out-of-order insert
///     repairs aggregates only from the touched leaf up to its first spine
///     ancestor: O(log d) combines.
///
/// Operations:
///   - Insert(t, v): position-dependent cost as above. Equal timestamps
///     merge via ⊕ in arrival order (one entry per distinct t).
///   - BulkInsert(span, n): detects nondecreasing in-order runs and blits
///     them into the right finger leaf-at-a-time, recomputing each leaf
///     with one ops::FoldValues pass (the ops/kernels.h SIMD fold);
///     out-of-order stragglers inside the span fall back to Insert.
///   - BulkEvict(w): removes every entry with t < w by chopping prefixes
///     off the left-finger leaf and repairing underflow locally —
///     O(k/B · log B + log n) for k evictions, amortized O(1) per evicted
///     entry while the watermark advances steadily.
///   - query(): full-window aggregate by walking the two spines, O(height).
///
/// Single-threaded, like every final aggregator in this repo. A standalone
/// baseline: bench/exp6_ooo measures it, and no engine or runtime runs it.
///
/// MinArity default: 16 measures strictly faster than 8 on this repo's
/// ingest lanes — in-order bulk appends fold bigger leaf runs per split
/// (32 -> 20 ns/tuple in bench/exp6_ooo) and even the out-of-order lanes
/// win (shallower tree beats the wider leaf memmove until ~50% OoO at
/// window-scale displacement, where the two roughly tie).
template <ops::AggregateOp Op, std::size_t MinArity = 16>
class OooTree {
  static_assert(MinArity >= 2, "B-tree min arity must be at least 2");

 public:
  using op_type = Op;
  using input_type = typename Op::input_type;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;
  using time_type = uint64_t;
  using timed_type = Timed<value_type>;

  /// The tree is dynamically sized and bounded by watermark eviction, not
  /// by a fixed window length.
  OooTree() : root_(std::make_unique<Node>()), lf_(root_.get()), rf_(lf_) {}

  // --- ingest ------------------------------------------------------------

  /// Inserts a lifted value at event time t; equal timestamps merge via ⊕
  /// in arrival order. Amortized O(1) when t is newest-so-far, O(log d)
  /// when t lands d positions from the nearer end.
  void Insert(time_type t, value_type v) {
    Node* rf = rf_;
    if (rf->times.empty()) {  // empty tree: rf_ == lf_ == root
      rf->times.push_back(t);
      rf->vals.push_back(std::move(v));
      rf->agg = rf->vals.back();
      size_ = 1;
      return;
    }
    if (t >= rf->times.back()) {  // in-order fast path: right finger append
      if (t == rf->times.back()) {
        rf->vals.back() = Op::combine(std::move(rf->vals.back()), std::move(v));
        Recompute(rf);  // tail changed, re-fold the leaf run
      } else {
        rf->times.push_back(t);
        rf->vals.push_back(std::move(v));
        rf->agg = Op::combine(std::move(rf->agg), rf->vals.back());
        ++size_;
        if (rf->times.size() > kMaxEntries) SplitUp(rf);
      }
      return;  // rf_ is on the right spine: no ancestor includes it
    }
    // Out-of-order: climb from the nearer finger, then descend.
    Node* y = FingerSeek(t);
    for (;;) {
      const std::size_t i = LowerBound(y->times, t);
      if (i < y->times.size() && y->times[i] == t) {
        y->vals[i] = Op::combine(std::move(y->vals[i]), std::move(v));
        FixupFrom(y);
        return;
      }
      if (y->leaf()) {
        y->times.insert(y->times.begin() + static_cast<std::ptrdiff_t>(i), t);
        y->vals.insert(y->vals.begin() + static_cast<std::ptrdiff_t>(i),
                       std::move(v));
        ++size_;
        if (y->times.size() > kMaxEntries) {
          SplitUp(y);
        } else {
          FixupFrom(y);
        }
        return;
      }
      y = y->kids[i].get();
    }
  }

  /// Bulk-inserts a span of timestamped values. Maximal nondecreasing
  /// in-order runs append leaf-at-a-time through the right finger with one
  /// ops::FoldValues pass per touched leaf; anything out of order falls
  /// back to the single-element path.
  SLICK_REALTIME_ALLOW(
      "out-of-order B-tree trades strict O(1) for ordering tolerance by "
      "design: node splits allocate (make_unique), amortized O(1/B) per "
      "insert — see DESIGN.md §12; strict hot paths use the deque "
      "aggregators instead")
  void BulkInsert(const timed_type* src, std::size_t n) {
    std::size_t i = 0;
    while (i < n) {
      if (empty() || src[i].t >= rf_->times.back()) {
        std::size_t j = i + 1;
        while (j < n && src[j].t >= src[j - 1].t) ++j;
        AppendRun(src + i, j - i);
        i = j;
      } else {
        Insert(src[i].t, src[i].v);
        ++i;
      }
    }
  }

  // --- evict -------------------------------------------------------------

  /// Removes every entry with t < watermark (the window's low cutoff);
  /// returns how many entries went. Leaf prefixes are chopped in one
  /// erase and the underflow repaired locally along the left spine.
  std::size_t BulkEvict(time_type watermark) {
    std::size_t evicted = 0;
    for (;;) {
      Node* leaf = lf_;
      const std::size_t n = LowerBound(leaf->times, watermark);
      if (n == 0) break;  // all remaining entries are >= watermark
      leaf->times.erase(leaf->times.begin(),
                        leaf->times.begin() + static_cast<std::ptrdiff_t>(n));
      leaf->vals.erase(leaf->vals.begin(),
                       leaf->vals.begin() + static_cast<std::ptrdiff_t>(n));
      size_ -= n;
      evicted += n;
      if (leaf->parent == nullptr) {  // root leaf: nothing to rebalance
        Recompute(leaf);
        continue;
      }
      RepairAfterPrefixErase(leaf);
    }
    return evicted;
  }

  // --- query -------------------------------------------------------------

  /// Full-window aggregate (identity when empty), via the two spines.
  result_type query() const { return Op::lower(SubtreeAgg(root_.get())); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }  // distinct timestamps held

  time_type oldest() const {
    SLICK_DCHECK(!empty(), "oldest() on empty OooTree");
    return lf_->times.front();
  }
  time_type newest() const {
    SLICK_DCHECK(!empty(), "newest() on empty OooTree");
    return rf_->times.back();
  }

  std::size_t memory_bytes() const { return NodeBytes(root_.get()); }

  /// Structural self-check for tests: key order, node occupancy, uniform
  /// leaf depth, parent pointers, spine flags, and finger identity.
  bool CheckInvariants() const {
    if (root_->parent || root_->left_spine || root_->right_spine) return false;
    int depth = -1;
    time_type prev = 0;
    bool first = true;
    if (!CheckNode(root_.get(), 0, &depth, &prev, &first)) return false;
    const Node* l = root_.get();
    while (!l->leaf()) l = l->kids.front().get();
    const Node* r = root_.get();
    while (!r->leaf()) r = r->kids.back().get();
    return l == lf_ && r == rf_;
  }

 private:
  static constexpr std::size_t kMin = MinArity;
  static constexpr std::size_t kMaxEntries = 2 * MinArity - 1;

  struct Node {
    Node* parent = nullptr;
    std::vector<time_type> times;              // sorted, strictly ascending
    std::vector<value_type> vals;              // parallel to times
    std::vector<std::unique_ptr<Node>> kids;   // empty iff leaf
    value_type agg = Op::identity();           // position-dependent (§13)
    bool left_spine = false;                   // leftmost child chain
    bool right_spine = false;                  // rightmost child chain
    bool leaf() const { return kids.empty(); }

    // Entry vectors are reserved to the overfull high-water mark up
    // front: a node's occupancy is bounded, and letting the vectors
    // discover that through the doubling sequence costs several
    // reallocations per freshly split node on the append path.
    Node() {
      times.reserve(kMaxEntries + 1);
      vals.reserve(kMaxEntries + 1);
    }
  };

  /// Node recycling. A steady watermark advance destroys one left-edge
  /// leaf for every right-edge leaf a split creates, so the allocator sits
  /// on the hot path twice per ~B tuples. Retired nodes park here (vector
  /// capacity intact — the constructor's reserve is paid once per node
  /// lifetime, not per reuse) and splits draw from the pool first. Bounded
  /// so a transient deep tree cannot pin memory forever.
  static constexpr std::size_t kPoolCap = 64;

  std::unique_ptr<Node> NewNode() {
    if (pool_.empty()) return std::make_unique<Node>();
    std::unique_ptr<Node> n = std::move(pool_.back());
    pool_.pop_back();
    return n;
  }

  /// Parks a detached node (children must already be moved out or be
  /// intentionally dropped — they are NOT pooled recursively).
  void Recycle(std::unique_ptr<Node> n) {
    if (pool_.size() >= kPoolCap) return;  // drop: destructor frees it
    n->parent = nullptr;
    n->times.clear();
    n->vals.clear();
    n->kids.clear();
    n->agg = Op::identity();
    n->left_spine = n->right_spine = false;
    pool_.push_back(std::move(n));
  }

  // A node's aggregate excludes its leftmost (rightmost) child subtree
  // when it sits on the left (right) spine; the root excludes both.
  static bool ExcludesLeft(const Node* y) {
    return y->parent == nullptr || y->left_spine;
  }
  static bool ExcludesRight(const Node* y) {
    return y->parent == nullptr || y->right_spine;
  }

  static std::size_t LowerBound(const std::vector<time_type>& ts,
                                time_type t) {
    return static_cast<std::size_t>(
        std::lower_bound(ts.begin(), ts.end(), t) - ts.begin());
  }

  static std::size_t KidIndex(const Node* p, const Node* x) {
    for (std::size_t i = 0; i < p->kids.size(); ++i) {
      if (p->kids[i].get() == x) return i;
    }
    SLICK_CHECK(false, "OooTree: child not linked to parent");
    return 0;
  }

  /// Rebuilds y->agg from its children and entries. Leaves re-fold their
  /// run through the ops/kernels.h dispatcher; interior reads are valid
  /// because every non-excluded child is interior (stores its up-agg).
  void Recompute(Node* y) {
    if (y->leaf()) {
      y->agg = ops::FoldValues<Op>(y->vals.data(), y->vals.size());
      return;
    }
    const bool skip_first = ExcludesLeft(y);
    const bool skip_last = ExcludesRight(y);
    const std::size_t k = y->times.size();
    bool have = false;
    value_type acc = Op::identity();
    auto add = [&](const value_type& x) {
      acc = have ? Op::combine(std::move(acc), x) : x;
      have = true;
    };
    if (!skip_first) add(y->kids.front()->agg);
    for (std::size_t i = 0; i < k; ++i) {
      add(y->vals[i]);
      if (i + 1 < k || !skip_last) add(y->kids[i + 1]->agg);
    }
    y->agg = std::move(acc);
  }

  /// Full aggregate of subtree(y), reconstructing the parts a spine node's
  /// stored agg excludes. Recurses only along spines: O(height).
  value_type SubtreeAgg(const Node* y) const {
    if (y->leaf()) return y->agg;
    const bool el = ExcludesLeft(y);
    const bool er = ExcludesRight(y);
    value_type acc = el ? SubtreeAgg(y->kids.front().get()) : Op::identity();
    acc = Op::combine(std::move(acc), y->agg);
    if (er && !(el && y->kids.size() == 1)) {
      acc = Op::combine(std::move(acc), SubtreeAgg(y->kids.back().get()));
    }
    return acc;
  }

  /// Recomputes x, then every *interior* ancestor up to and including the
  /// first spine/root node — the ancestors beyond it exclude this subtree.
  void FixupFrom(Node* x) {
    Recompute(x);
    while (x->parent && !x->left_spine && !x->right_spine) {
      x = x->parent;
      Recompute(x);
    }
  }

  /// Start node for a search: climb from the nearer finger until the
  /// node's subtree covers t. O(log d) for out-of-order distance d.
  Node* FingerSeek(time_type t) {
    const bool from_right =
        t >= rf_->times.front() ||
        (t > lf_->times.back() && newest() - t <= t - oldest());
    if (from_right) {
      Node* y = rf_;  // right-spine y covers keys > parent->times.back()
      while (y->parent && t <= y->parent->times.back()) y = y->parent;
      return y;
    }
    Node* y = lf_;  // left-spine y covers keys < parent->times.front()
    while (y->parent && t >= y->parent->times.front()) y = y->parent;
    return y;
  }

  // --- split path --------------------------------------------------------

  void SplitUp(Node* y) {
    while (y->times.size() > kMaxEntries) {
      Split(y);
      y = y->parent;  // gained the promoted median
    }
    FixupFrom(y);
  }

  /// Splits an overfull node (2·kMin entries): left keeps kMin, the median
  /// promotes, a new right sibling takes kMin-1. Spine flags move locally:
  /// the right-spine (or root) role passes to the new right sibling, which
  /// inherits the old rightmost child — no flag changes cascade.
  void Split(Node* y) {
    const bool was_root = (y->parent == nullptr);
    if (was_root) {
      auto nr = NewNode();
      y = root_.release();
      nr->kids.emplace_back(y);
      y->parent = nr.get();
      root_ = std::move(nr);
      y->left_spine = true;
    }
    Node* p = y->parent;

    auto right_owned = NewNode();
    Node* right = right_owned.get();
    right->parent = p;
    right->right_spine = was_root || y->right_spine;
    y->right_spine = false;

    const std::size_t mid = kMin;
    const time_type median_t = y->times[mid];
    value_type median_v = std::move(y->vals[mid]);
    right->times.assign(y->times.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                        y->times.end());
    right->vals.insert(right->vals.end(),
                       std::make_move_iterator(
                           y->vals.begin() + static_cast<std::ptrdiff_t>(mid) +
                           1),
                       std::make_move_iterator(y->vals.end()));
    y->times.resize(mid);
    y->vals.resize(mid);
    if (!y->leaf()) {
      for (std::size_t i = mid + 1; i < y->kids.size(); ++i) {
        y->kids[i]->parent = right;
        right->kids.push_back(std::move(y->kids[i]));
      }
      y->kids.resize(mid + 1);
    }
    if (y->leaf() && y == rf_) rf_ = right;

    const std::size_t idx = KidIndex(p, y);
    p->times.insert(p->times.begin() + static_cast<std::ptrdiff_t>(idx),
                    median_t);
    p->vals.insert(p->vals.begin() + static_cast<std::ptrdiff_t>(idx),
                   std::move(median_v));
    p->kids.insert(p->kids.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                   std::move(right_owned));
    Recompute(y);
    Recompute(right);
  }

  // --- rebalance primitives ----------------------------------------------

  void BorrowFromRight(Node* p, std::size_t idx) {
    Node* x = p->kids[idx].get();
    Node* s = p->kids[idx + 1].get();
    x->times.push_back(p->times[idx]);
    x->vals.push_back(std::move(p->vals[idx]));
    p->times[idx] = s->times.front();
    p->vals[idx] = std::move(s->vals.front());
    s->times.erase(s->times.begin());
    s->vals.erase(s->vals.begin());
    if (!s->leaf()) {
      auto kid = std::move(s->kids.front());
      s->kids.erase(s->kids.begin());
      kid->parent = x;
      x->kids.push_back(std::move(kid));
    }
    Recompute(s);
    Recompute(x);
  }

  /// Merges kids[idx], separator idx, and kids[idx+1] into kids[idx].
  /// The right node's spine role (and the right finger, if it was one)
  /// transfers to the survivor.
  void MergeChildren(Node* p, std::size_t idx) {
    Node* l = p->kids[idx].get();
    Node* r = p->kids[idx + 1].get();
    l->times.push_back(p->times[idx]);
    l->vals.push_back(std::move(p->vals[idx]));
    l->times.insert(l->times.end(), r->times.begin(), r->times.end());
    l->vals.insert(l->vals.end(), std::make_move_iterator(r->vals.begin()),
                   std::make_move_iterator(r->vals.end()));
    for (auto& kid : r->kids) {
      kid->parent = l;
      l->kids.push_back(std::move(kid));
    }
    l->right_spine = l->right_spine || r->right_spine;
    if (r == rf_) rf_ = l;
    p->times.erase(p->times.begin() + static_cast<std::ptrdiff_t>(idx));
    p->vals.erase(p->vals.begin() + static_cast<std::ptrdiff_t>(idx));
    auto dead = std::move(p->kids[idx + 1]);
    p->kids.erase(p->kids.begin() + static_cast<std::ptrdiff_t>(idx) + 1);
    Recycle(std::move(dead));
    Recompute(l);
  }

  /// Drops an empty non-leaf root after merges collapsed its children.
  void CollapseRoot() {
    while (!root_->leaf() && root_->times.empty()) {
      auto old = std::move(root_);
      auto kid = std::move(old->kids.front());
      kid->parent = nullptr;
      kid->left_spine = false;
      kid->right_spine = false;
      root_ = std::move(kid);
      Recycle(std::move(old));
      Recompute(root_.get());  // root class excludes both edge children
    }
  }

  /// Rebalances after BulkEvict chopped a (possibly whole-leaf) prefix:
  /// borrow while the right sibling can lend, merge otherwise, and walk
  /// the deficit up the left spine. The deficient node is the left finger
  /// or one of its ancestors, so it is always its parent's first child.
  void RepairAfterPrefixErase(Node* leaf) {
    Recompute(leaf);
    Node* x = leaf;
    Node* top = leaf;
    while (x->parent && x->times.size() < kMin - 1) {
      Node* p = x->parent;
      SLICK_DCHECK(p->kids.front().get() == x,
                   "OooTree: repair climbed off the left spine");
      Node* rsib = p->kids[1].get();
      if (x->leaf() && rsib->leaf()) {
        // Bulk leaf borrow: a chopped left-finger leaf is typically
        // kMin-2 entries short, and rotating them through the separator
        // one at a time costs two full leaf re-folds PER ENTRY. Move the
        // whole deficit in one splice (separator + need-1 sibling heads,
        // new separator promoted from the sibling) and re-fold each leaf
        // once.
        const std::size_t need = (kMin - 1) - x->times.size();
        if (rsib->times.size() >= need + kMin - 1) {
          x->times.push_back(p->times[0]);
          x->vals.push_back(std::move(p->vals[0]));
          const auto take = static_cast<std::ptrdiff_t>(need - 1);
          x->times.insert(x->times.end(), rsib->times.begin(),
                          rsib->times.begin() + take);
          x->vals.insert(x->vals.end(),
                         std::make_move_iterator(rsib->vals.begin()),
                         std::make_move_iterator(rsib->vals.begin() + take));
          p->times[0] = rsib->times[need - 1];
          p->vals[0] = std::move(rsib->vals[need - 1]);
          rsib->times.erase(rsib->times.begin(),
                            rsib->times.begin() + take + 1);
          rsib->vals.erase(rsib->vals.begin(),
                           rsib->vals.begin() + take + 1);
          Recompute(x);
          Recompute(rsib);
          top = p;
          continue;  // x now holds exactly kMin-1 entries: loop exits
        }
      }
      if (rsib->times.size() >= kMin) {
        BorrowFromRight(p, 0);
        top = p;
        continue;  // deficit may exceed one borrow: re-check x
      }
      MergeChildren(p, 0);  // merged node holds >= kMin entries
      x = p;  // p lost an entry: the deficit moves up
      top = p;
    }
    FixupFrom(top);
    CollapseRoot();
  }

  // --- bulk append --------------------------------------------------------

  /// Appends a nondecreasing run that starts at or after the current
  /// newest timestamp: fill the right-finger leaf, re-fold it once, split,
  /// repeat. Equal timestamps collapse into the leaf tail via ⊕.
  void AppendRun(const timed_type* run, std::size_t m) {
    std::size_t i = 0;
    while (i < m) {
      Node* leaf = rf_;
      bool changed = false;
      while (i < m) {
        if (!leaf->times.empty() && run[i].t == leaf->times.back()) {
          leaf->vals.back() =
              Op::combine(std::move(leaf->vals.back()), run[i].v);
        } else if (leaf->times.size() < kMaxEntries) {
          leaf->times.push_back(run[i].t);
          leaf->vals.push_back(run[i].v);
          ++size_;
        } else {
          break;  // leaf full and the next element opens a new entry
        }
        ++i;
        changed = true;
      }
      if (changed) Recompute(leaf);  // one FoldValues pass per touched leaf
      if (i < m) {
        leaf->times.push_back(run[i].t);  // overfull on purpose:
        leaf->vals.push_back(run[i].v);   // SplitUp re-folds both halves
        ++size_;
        ++i;
        SplitUp(leaf);
      }
    }
  }

  // --- misc ---------------------------------------------------------------

  static std::size_t NodeBytes(const Node* y) {
    std::size_t b = sizeof(Node) + y->times.capacity() * sizeof(time_type) +
                    y->vals.capacity() * sizeof(value_type) +
                    y->kids.capacity() * sizeof(std::unique_ptr<Node>);
    for (const auto& kid : y->kids) b += NodeBytes(kid.get());
    return b;
  }

  bool CheckNode(const Node* y, int level, int* leaf_depth, time_type* prev,
                 bool* first) const {
    const std::size_t k = y->times.size();
    if (y->parent) {
      if (k < kMin - 1 || k > kMaxEntries) return false;
      const std::size_t idx = KidIndex(y->parent, y);
      const bool pl = y->parent->parent == nullptr || y->parent->left_spine;
      const bool pr = y->parent->parent == nullptr || y->parent->right_spine;
      if (y->left_spine != (pl && idx == 0)) return false;
      if (y->right_spine != (pr && idx == y->parent->kids.size() - 1)) {
        return false;
      }
    } else if (!y->leaf() && k == 0) {
      return false;
    }
    if (!y->leaf() && y->kids.size() != k + 1) return false;
    if (y->leaf()) {
      if (*leaf_depth < 0) *leaf_depth = level;
      if (*leaf_depth != level) return false;
    }
    for (std::size_t i = 0; i <= k; ++i) {
      if (!y->leaf()) {
        if (y->kids[i]->parent != y) return false;
        if (!CheckNode(y->kids[i].get(), level + 1, leaf_depth, prev, first)) {
          return false;
        }
      }
      if (i < k) {
        if (!*first && y->times[i] <= *prev) return false;
        *prev = y->times[i];
        *first = false;
      }
    }
    return true;
  }

  std::unique_ptr<Node> root_;
  Node* lf_ = nullptr;  // left finger: the leftmost (oldest) leaf
  Node* rf_ = nullptr;  // right finger: the rightmost (newest) leaf
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Node>> pool_;  // retired nodes, see Recycle()
};

}  // namespace slick::window
