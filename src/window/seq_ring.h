#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/check.h"
#include "util/serde.h"

namespace slick::window {

/// Double-ended FIFO queue on one contiguous ring buffer — the storage
/// under both faces of SlickDeque (Non-Inv), DABA, Subtract-on-Evict and
/// TimeWindow's timestamps.
///
/// Elements are addressed by absolute uint64 *sequence numbers*:
/// `front_seq()` is the oldest live element's, `end_seq()` one past the
/// newest's. Seqs stay stable across pops at both ends (a pop at the back
/// hands its seq to the next push), which is what DABA's region pointers
/// and SlickDeque (Non-Inv)'s answer cursors need. Seq s lives in slot
/// head_slot() + (s - front_seq()), wrapped by one compare. The slot-level
/// accessors let hot loops that probe or walk the ring carry a slot
/// instead of re-deriving it from a seq.
///
/// Growth: when a push finds the ring full, or reserve() asks for more,
/// the live elements are unwrapped into a new buffer of
/// min(bound, max(2·capacity, size + m)) slots, m being the room needed —
/// TwoStacks' rule. `bound` is the most elements the holder can ever keep
/// (SlickDeque (Non-Inv)'s fixed face: its window); FIFO holders, that
/// deque's FIFO face included, leave it unbounded. The ring never shrinks:
/// it keeps its high-water capacity.
///
/// Checkpoints use the CAQ1 frame, written and validated only here: tag,
/// a u32 shift field, front and end seq, then the elements oldest first
/// through util::WriteVal. The shift field is the log2 chunk size of the
/// chunked queue the layout was first written by; it is always written as
/// 6 and ignored on load (any value ≤ 30 is accepted), so older frames
/// still load.
template <typename T>
class SeqRing {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  explicit SeqRing(std::size_t bound = kUnbounded) : bound_(bound) {}

  bool empty() const { return front_seq_ == end_seq_; }
  std::size_t size() const {
    return static_cast<std::size_t>(end_seq_ - front_seq_);
  }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t bound() const { return bound_; }

  /// Sequence number of the oldest live element.
  uint64_t front_seq() const { return front_seq_; }
  /// One past the sequence number of the newest live element.
  uint64_t end_seq() const { return end_seq_; }

  /// Slot of front_seq().
  std::size_t head_slot() const { return head_; }
  /// Slot of `seq`, for front_seq() <= seq <= end_seq() (end_seq() only
  /// while the ring is not full).
  std::size_t slot(uint64_t seq) const {
    const std::size_t s = head_ + static_cast<std::size_t>(seq - front_seq_);
    return s >= buf_.size() ? s - buf_.size() : s;
  }
  std::size_t next_slot(std::size_t s) const {
    return s + 1 == buf_.size() ? 0 : s + 1;
  }
  T& at_slot(std::size_t s) { return buf_[s]; }
  const T& at_slot(std::size_t s) const { return buf_[s]; }

  T& operator[](uint64_t seq) {
    SLICK_DCHECK(seq >= front_seq_ && seq < end_seq_, "sequence out of range");
    return buf_[slot(seq)];
  }
  const T& operator[](uint64_t seq) const {
    return const_cast<SeqRing*>(this)->operator[](seq);
  }

  T& front() {
    SLICK_DCHECK(!empty(), "front of empty ring");
    return buf_[head_];
  }
  T& back() {
    SLICK_DCHECK(!empty(), "back of empty ring");
    return buf_[slot(end_seq_ - 1)];
  }
  const T& front() const { return const_cast<SeqRing*>(this)->front(); }
  const T& back() const { return const_cast<SeqRing*>(this)->back(); }

  SLICK_REALTIME void push_back(T v) {
    if (size() == buf_.size()) Grow(1);
    buf_[slot(end_seq_)] = std::move(v);
    ++end_seq_;
  }

  SLICK_REALTIME void pop_front() {
    SLICK_DCHECK(!empty(), "pop_front on empty ring");
    ++front_seq_;
    head_ = next_slot(head_);
  }

  /// Drops the `n` newest elements: one subtraction.
  SLICK_REALTIME void pop_back(std::size_t n = 1) {
    SLICK_DCHECK(n <= size(), "pop_back past the front");
    end_seq_ -= n;
  }

  /// Drops every element; the next push gets seq front_seq().
  void clear() { end_seq_ = front_seq_; }

  /// Makes room for `n` elements in total (at most `bound`) by the growth
  /// rule, so n - size() pushes that follow do not grow the ring.
  SLICK_REALTIME void reserve(std::size_t n) {
    if (n > buf_.size()) Grow(n - size());
  }

  /// Heap bytes of the slot buffer; holders add their own sizeof.
  std::size_t buffer_bytes() const { return buf_.capacity() * sizeof(T); }

  /// Writes the CAQ1 frame. `proj` maps each element to what is written
  /// (SlickDeque (Non-Inv) writes its slide indices modulo the window).
  template <typename Proj = std::identity>
  void SaveState(std::ostream& os, Proj proj = {}) const {
    util::WriteTag(os, kTag, 1);
    util::WritePod<uint32_t>(os, kShift);
    util::WritePod<uint64_t>(os, front_seq_);
    util::WritePod<uint64_t>(os, end_seq_);
    for (std::size_t k = 0, s = head_; k < size(); ++k, s = next_slot(s)) {
      util::WriteVal(os, proj(buf_[s]));
    }
  }

  /// Reads a CAQ1 frame, replacing the content and adopting its seqs. The
  /// elements are read into a temporary ring that starts at this ring's
  /// capacity and grows by the growth rule, then committed by move; a frame
  /// with more elements than `bound`, a shift above 30 or end < front is
  /// rejected, and a rejected frame leaves this ring unchanged.
  bool LoadState(std::istream& is)
    requires util::Serializable<T>
  {
    uint32_t shift = 0;
    uint64_t front = 0, end = 0;
    if (!util::ExpectTag(is, kTag, 1) || !util::ReadPod(is, &shift) ||
        !util::ReadPod(is, &front) || !util::ReadPod(is, &end) ||
        shift > 30 || end < front || end - front > bound_) {
      return false;
    }
    SeqRing ring(bound_);
    ring.buf_.resize(buf_.size());
    ring.front_seq_ = ring.end_seq_ = front;
    for (uint64_t s = front; s != end; ++s) {
      T v{};
      if (!util::ReadVal(is, &v)) return false;
      ring.push_back(std::move(v));
    }
    *this = std::move(ring);
    return true;
  }

 private:
  static constexpr uint32_t kTag = util::MakeTag('C', 'A', 'Q', '1');
  static constexpr uint32_t kShift = 6;

  /// Unwraps the live elements to slot 0 of a buffer with room for `m`
  /// more. Kept out of line so push_back stays small.
  SLICK_REALTIME_ALLOW(
      "geometric growth, amortized O(1) per element: a bounded ring grows "
      "at most log2(bound / initial capacity) times in its lifetime, a "
      "holder that reserves its window (Windowed's identity pre-fill) "
      "never grows it in steady state, and the ring never shrinks")
  [[gnu::noinline]] void Grow(std::size_t m) {
    const std::size_t live = size();
    const std::size_t cap =
        std::min(bound_, std::max(2 * buf_.size(), live + m));
    SLICK_CHECK(cap > live, "ring is full at its bound");
    std::vector<T> grown(cap);
    for (std::size_t k = 0, s = head_; k < live; ++k, s = next_slot(s)) {
      grown[k] = std::move(buf_[s]);
    }
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity() slots; seq s at slot(s)
  std::size_t bound_;
  std::size_t head_ = 0;     // slot of front_seq_
  uint64_t front_seq_ = 0;   // seq of the oldest live element
  uint64_t end_seq_ = 0;     // one past the seq of the newest
};

}  // namespace slick::window
