#pragma once

#include <cstddef>
#include <utility>

#include "ops/kernels.h"
#include "ops/traits.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::core {

/// Dynamically sized FIFO counterpart of SlickDeque (Inv) for a single
/// query: a running aggregate plus a queue of the window's values. insert()
/// applies ⊕, evict() applies ⊖ to the expiring value (the paper's §2.2
/// lineage: Panes (Inv) / R-Int / Subtract-on-Evict). Exactly one aggregate
/// operation per event; space n + 1.
template <ops::InvertibleOp Op>
class SubtractOnEvict {
 public:
  using op_type = Op;
  using value_type = typename Op::value_type;
  using result_type = typename Op::result_type;

  SLICK_REALTIME void insert(value_type v) {
    running_ = Op::combine(running_, v);
    values_.push_back(std::move(v));
  }

  SLICK_REALTIME void evict() {
    SLICK_CHECK(!values_.empty(), "evict from empty window");
    running_ = Op::inverse(running_, values_.front());
    values_.pop_front();
  }

  /// Batch insert (DESIGN.md §11): one kernel fold of the batch plus a
  /// single ⊕ into the running aggregate. Exact for integer group ops;
  /// floating point may differ from per-element insertion by
  /// reassociation only.
  SLICK_REALTIME void BulkInsert(const value_type* src, std::size_t n) {
    if (n == 0) return;
    running_ = Op::combine(running_, ops::FoldValues<Op>(src, n));
    for (std::size_t i = 0; i < n; ++i) values_.push_back(src[i]);
  }

  /// Batch evict (DESIGN.md §11): folds the n expiring values and applies
  /// one ⊖ instead of n.
  SLICK_REALTIME void BulkEvict(std::size_t n) {
    SLICK_CHECK(n <= values_.size(), "bulk evict larger than window");
    if (n == 0) return;
    value_type expiring = Op::identity();
    for (std::size_t i = 0; i < n; ++i) {
      expiring = Op::combine(expiring, values_.front());
      values_.pop_front();
    }
    running_ = Op::inverse(running_, expiring);
  }

  SLICK_REALTIME result_type query() const { return Op::lower(running_); }

  std::size_t size() const { return values_.size(); }

  std::size_t memory_bytes() const {
    return sizeof(*this) + values_.buffer_bytes();
  }

  /// Checkpoints the window and running aggregate (DSMS fault tolerance).
  void SaveState(std::ostream& os) const
    requires std::is_trivially_copyable_v<value_type>
  {
    util::WriteTag(os, util::MakeTag('S', 'O', 'E', '1'), 1);
    values_.SaveState(os);
    util::WritePod(os, running_);
  }

  /// Restores a checkpoint, replacing the current state. The frame is
  /// parsed into temporaries and committed by move, so a rejected frame
  /// leaves this instance untouched.
  bool LoadState(std::istream& is)
    requires std::is_trivially_copyable_v<value_type>
  {
    window::SeqRing<value_type> values;
    value_type running = Op::identity();
    if (!util::ExpectTag(is, util::MakeTag('S', 'O', 'E', '1'), 1) ||
        !values.LoadState(is) || !util::ReadPod(is, &running)) {
      return false;
    }
    values_ = std::move(values);
    running_ = running;
    return true;
  }

 private:
  window::SeqRing<value_type> values_;
  value_type running_ = Op::identity();
};

}  // namespace slick::core

