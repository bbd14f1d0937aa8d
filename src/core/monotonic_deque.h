#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/slick_deque_noninv.h"
#include "ops/traits.h"
#include "util/check.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::core {

/// Dynamically sized FIFO counterpart of SlickDeque (Non-Inv) for a single
/// query: the same ⊕-monotone deque as core::SlickDequeNonInv, but keyed by
/// absolute arrival sequence instead of a circular window position, so it
/// supports arbitrary insert()/evict() interleavings (growing and shrinking
/// windows). Used by the dispatching facade for FIFO-shaped workloads.
template <ops::SelectiveOp Op>
  requires std::equality_comparable<typename Op::value_type>
class MonotonicDeque {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  void insert(value_type v) {
    while (!deque_.empty() && ops::Absorbs<Op>(v, deque_.back().val)) {
      deque_.pop_back();
    }
    deque_.push_back(Node{next_seq_, std::move(v)});
    ++next_seq_;
    ++live_;
  }

  void evict() {
    SLICK_CHECK(live_ > 0, "evict from empty window");
    ++oldest_seq_;
    --live_;
    if (!deque_.empty() && deque_.front().seq < oldest_seq_) {
      deque_.pop_front();
    }
  }

  /// Batch insert (DESIGN.md §11): the staircase SlickDeque (Non-Inv)'s
  /// BulkSlide uses — for total-order absorbs the batch survivors are
  /// found right-to-left with one test per element (core::BatchStaircase)
  /// and the existing tail is pruned once against the whole-batch
  /// aggregate; other selective ops run the exact per-element loop. Final
  /// deque state is identical to n sequential insert() calls.
  void BulkInsert(const value_type* src, std::size_t n) {
    if (n == 0) return;
    if constexpr (ops::TotalOrderSelectiveOp<Op>) {
      const value_type suffix = BatchStaircase<Op>(src, n, stair_);
      while (!deque_.empty() &&
             ops::Absorbs<Op>(suffix, deque_.back().val)) {
        deque_.pop_back();
      }
      for (std::size_t t = stair_.size(); t-- > 0;) {
        const std::size_t k = stair_[t];
        deque_.push_back(Node{next_seq_ + k, src[k]});
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        while (!deque_.empty() &&
               ops::Absorbs<Op>(src[k], deque_.back().val)) {
          deque_.pop_back();
        }
        deque_.push_back(Node{next_seq_ + k, src[k]});
      }
    }
    next_seq_ += n;
    live_ += n;
  }

  /// Batch evict (DESIGN.md §11): one sequence-counter jump, then a single
  /// head-prefix pop (sequence numbers are strictly increasing, so expired
  /// nodes always form a prefix).
  void BulkEvict(std::size_t n) {
    SLICK_CHECK(n <= live_, "bulk evict larger than window");
    oldest_seq_ += n;
    live_ -= n;
    while (!deque_.empty() && deque_.front().seq < oldest_seq_) {
      deque_.pop_front();
    }
  }

  /// Aggregate of the live window: the head node's value (identity when
  /// empty).
  result_type query() const {
    if (deque_.empty()) return Op::lower(Op::identity());
    return Op::lower(deque_.front().val);
  }

  std::size_t size() const { return live_; }

  std::size_t node_count() const { return deque_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + deque_.buffer_bytes();
  }

  /// Checkpoints the deque and sequence counters (DSMS fault tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('M', 'O', 'N', '1'), 1);
    deque_.SaveState(os);
    util::WritePod(os, next_seq_);
    util::WritePod(os, oldest_seq_);
    util::WritePod<uint64_t>(os, live_);
  }

  /// Restores a checkpoint, replacing the current state. The frame is
  /// parsed and validated into temporaries and committed by move, so a
  /// rejected frame leaves this instance untouched. Accepted states:
  ///  * live == next_seq - oldest_seq;
  ///  * node seqs strictly increasing head → tail, inside
  ///    [oldest_seq, next_seq);
  ///  * the tail node is the newest element when the window is not empty
  ///    (insert() always appends it);
  ///  * ⊕-monotonicity: no node absorbed by its newer neighbour — insert()
  ///    would have popped it.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    window::SeqRing<Node> deque;
    uint64_t next = 0, oldest = 0, live = 0;
    if (!util::ExpectTag(is, util::MakeTag('M', 'O', 'N', '1'), 1) ||
        !deque.LoadState(is) || !util::ReadPod(is, &next) ||
        !util::ReadPod(is, &oldest) || !util::ReadPod(is, &live) ||
        oldest > next || live != next - oldest) {
      return false;
    }
    for (uint64_t s = deque.front_seq(); s != deque.end_seq(); ++s) {
      const Node& node = deque[s];
      if (node.seq < oldest || node.seq >= next) return false;
      if (s != deque.front_seq() &&
          (node.seq <= deque[s - 1].seq ||
           ops::Absorbs<Op>(node.val, deque[s - 1].val))) {
        return false;
      }
    }
    if (live != 0 && (deque.empty() || deque.back().seq != next - 1)) {
      return false;
    }
    deque_ = std::move(deque);
    next_seq_ = next;
    oldest_seq_ = oldest;
    live_ = static_cast<std::size_t>(live);
    return true;
  }

 private:
  struct Node {
    uint64_t seq;  // arrival sequence number
    value_type val;
  };

  window::SeqRing<Node> deque_;
  std::vector<std::size_t> stair_;  // BulkInsert scratch: surviving indices
  uint64_t next_seq_ = 0;    // sequence of the next insert
  uint64_t oldest_seq_ = 0;  // sequence of the oldest live element
  std::size_t live_ = 0;     // live window size
};

}  // namespace slick::core

