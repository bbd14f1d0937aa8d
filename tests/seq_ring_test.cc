#include <cstdint>
#include <cstring>
#include <deque>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/serde.h"
#include "window/seq_ring.h"

namespace slick::window {
namespace {

template <typename T>
std::string SaveBytes(const SeqRing<T>& q) {
  std::stringstream ss;
  q.SaveState(ss);
  return ss.str();
}

TEST(SeqRingTest, StartsEmpty) {
  SeqRing<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.front_seq(), q.end_seq());
}

TEST(SeqRingTest, FifoOrder) {
  SeqRing<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(SeqRingTest, SequenceAddressingIsStable) {
  SeqRing<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i * 10);
  const uint64_t seq5 = q.front_seq() + 5;
  EXPECT_EQ(q[seq5], 50);
  // Popping from the front must not disturb live sequence numbers.
  for (int i = 0; i < 5; ++i) q.pop_front();
  EXPECT_EQ(q[seq5], 50);
  EXPECT_EQ(q.front_seq(), 5u);
  EXPECT_EQ(q.front(), 50);
  EXPECT_EQ(q.back(), 190);
  // Nor growing across a wrap: seqs move with their elements.
  for (int i = 20; i < 40; ++i) q.push_back(i * 10);
  EXPECT_EQ(q[seq5], 50);
  EXPECT_EQ(q[q.end_seq() - 1], 390);
}

TEST(SeqRingTest, PopBack) {
  SeqRing<int> q;
  for (int i = 0; i < 9; ++i) q.push_back(i);
  q.pop_back();
  EXPECT_EQ(q.back(), 7);
  EXPECT_EQ(q.size(), 8u);
  // A multi-pop is one end_seq subtraction; the popped seqs are reused.
  q.pop_back(3);
  EXPECT_EQ(q.back(), 4);
  EXPECT_EQ(q.end_seq(), 5u);
  q.push_back(50);
  EXPECT_EQ(q[4], 4);
  EXPECT_EQ(q[5], 50);
  while (!q.empty()) q.pop_back();
  EXPECT_TRUE(q.empty());
  // Reusable after draining from the back.
  q.push_back(42);
  EXPECT_EQ(q.front(), 42);
  EXPECT_EQ(q.back(), 42);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.end_seq(), q.front_seq());
}

TEST(SeqRingTest, MixedEndsMatchStdDeque) {
  for (const std::size_t bound :
       {SeqRing<int>::kUnbounded, std::size_t{37}}) {
    SeqRing<int> q(bound);
    std::deque<int> ref;
    util::SplitMix64 rng(99);
    for (int step = 0; step < 20000; ++step) {
      const uint64_t action = rng.NextBounded(4);
      if ((action == 0 || ref.empty()) && ref.size() < bound) {
        const int v = static_cast<int>(rng.NextBounded(1000));
        q.push_back(v);
        ref.push_back(v);
      } else if (action == 1 && !ref.empty()) {
        q.pop_front();
        ref.pop_front();
      } else if (action == 2 && !ref.empty()) {
        q.pop_back();
        ref.pop_back();
      } else if (!ref.empty()) {
        const uint64_t idx = rng.NextBounded(ref.size());
        ASSERT_EQ(q[q.front_seq() + idx], ref[idx]);
        // Slot-level access agrees with seq-level access.
        ASSERT_EQ(q.at_slot(q.slot(q.front_seq() + idx)), ref[idx]);
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_LE(q.capacity(), bound);
      if (!ref.empty()) {
        ASSERT_EQ(q.front(), ref.front());
        ASSERT_EQ(q.back(), ref.back());
        ASSERT_EQ(q.at_slot(q.head_slot()), ref.front());
      }
    }
  }
}

TEST(SeqRingTest, WorksWithNonTrivialTypes) {
  SeqRing<std::string> q;
  q.push_back("alpha");
  q.push_back("beta");
  q.push_back("gamma");
  EXPECT_EQ(q.front(), "alpha");
  q.pop_front();
  EXPECT_EQ(q.front(), "beta");
  EXPECT_EQ(q.back(), "gamma");
  // Growth moves the strings, oldest first.
  for (int i = 0; i < 10; ++i) {
    q.push_back(std::string(40, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(q.front(), "beta");
  EXPECT_EQ(q.back(), std::string(40, 'j'));
}

TEST(SeqRingTest, BufferBytesTrackCapacity) {
  SeqRing<int64_t> q;
  EXPECT_EQ(q.buffer_bytes(), 0u);
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_GE(q.buffer_bytes(), 100 * sizeof(int64_t));
  EXPECT_EQ(q.buffer_bytes(), q.capacity() * sizeof(int64_t));
  // No shrinking: draining keeps the high-water buffer.
  const std::size_t high_water = q.buffer_bytes();
  while (!q.empty()) q.pop_front();
  EXPECT_EQ(q.buffer_bytes(), high_water);
}

TEST(SeqRingTest, GrowsToExactNonPowerOfTwoBoundAcrossWrap) {
  SeqRing<int> q(100);
  q.reserve(64);
  ASSERT_EQ(q.capacity(), 64u);
  int next = 0;
  for (; next < 64; ++next) q.push_back(next);
  for (int i = 0; i < 30; ++i) q.pop_front();
  // Wrap: the head sits at slot 30 and the newest 30 elements fill slots
  // 0..29, so the ring is full across its seam.
  for (int i = 0; i < 30; ++i) q.push_back(next++);
  ASSERT_EQ(q.size(), 64u);
  ASSERT_EQ(q.capacity(), 64u);
  ASSERT_EQ(q.head_slot(), 30u);
  // The next push doubles, capped at the bound: exactly 100 slots, live
  // elements unwrapped to slot 0 in order.
  q.push_back(next++);
  EXPECT_EQ(q.capacity(), 100u);
  EXPECT_EQ(q.head_slot(), 0u);
  while (q.size() < 100) q.push_back(next++);
  EXPECT_EQ(q.capacity(), 100u);
  int expect = 30;
  for (uint64_t s = q.front_seq(); s != q.end_seq(); ++s) {
    ASSERT_EQ(q[s], expect++);
  }
  // Full at the bound, a pop makes room without growing.
  q.pop_front();
  q.push_back(next++);
  EXPECT_EQ(q.capacity(), 100u);
  EXPECT_EQ(q.back(), next - 1);
  EXPECT_DEATH(q.push_back(0), "ring is full at its bound");
}

TEST(SeqRingTest, UnboundedGrowthTakesMaxOfDoubleAndNeeded) {
  SeqRing<int> q;
  q.push_back(1);
  EXPECT_EQ(q.capacity(), 1u);  // max(2·0, 0 + 1)
  q.push_back(2);
  EXPECT_EQ(q.capacity(), 2u);  // max(2·1, 1 + 1)
  q.push_back(3);
  EXPECT_EQ(q.capacity(), 4u);  // max(2·2, 2 + 1)
  q.reserve(q.size() + 20);
  EXPECT_EQ(q.capacity(), 23u);  // max(2·4, 3 + 20)
  q.reserve(24);
  EXPECT_EQ(q.capacity(), 46u);  // max(2·23, 3 + 21)
  q.reserve(10);                 // already room: no change
  EXPECT_EQ(q.capacity(), 46u);
  EXPECT_EQ(q.front(), 1);
  EXPECT_EQ(q.back(), 3);
}

TEST(SeqRingTest, FrameRoundTripPreservesSequences) {
  SeqRing<int64_t> q;
  for (int64_t i = 0; i < 100; ++i) q.push_back(i);
  for (int i = 0; i < 37; ++i) q.pop_front();
  std::stringstream ss;
  q.SaveState(ss);
  SeqRing<int64_t> r;
  r.push_back(7);  // replaced
  ASSERT_TRUE(r.LoadState(ss));
  EXPECT_EQ(r.front_seq(), q.front_seq());
  EXPECT_EQ(r.end_seq(), q.end_seq());
  for (uint64_t s = q.front_seq(); s < q.end_seq(); ++s) {
    ASSERT_EQ(r[s], q[s]);
  }
  r.push_back(12345);
  EXPECT_EQ(r.back(), 12345);
  EXPECT_EQ(r.end_seq(), q.end_seq() + 1);
}

// CAQ1 layout: [0] tag+version (8)  [8] shift u32  [12] front u64
// [20] end u64  [28] elements.
TEST(SeqRingTest, SavedShiftIsSixAndShiftFourStillLoads) {
  SeqRing<int64_t> q;
  for (int64_t i = 0; i < 5; ++i) q.push_back(i * 3);
  q.pop_front();
  const std::string bytes = SaveBytes(q);
  ASSERT_EQ(bytes.size(), 28u + 4 * sizeof(int64_t));
  uint32_t shift = 0;
  std::memcpy(&shift, bytes.data() + 8, sizeof shift);
  EXPECT_EQ(shift, 6u);

  // A frame written with 16-element chunks loads the same elements.
  std::string shift4 = bytes;
  shift4[8] = 4;
  SeqRing<int64_t> r;
  std::stringstream in(shift4);
  ASSERT_TRUE(r.LoadState(in));
  EXPECT_EQ(SaveBytes(r), bytes);

  // Rejected: shift above 30, end < front, truncated, more elements than
  // the bound. Each leaves the target unchanged. The first three go into
  // a target whose bound admits the frame's 4 elements, so the bound check
  // cannot reject them before their own defect is read.
  std::string big_shift = bytes;
  big_shift[8] = 31;
  std::string end_before_front = bytes;
  end_before_front[20] = 0;
  const auto expect_rejected = [](SeqRing<int64_t>& target,
                                  const std::string& frame) {
    const std::string before = SaveBytes(target);
    std::stringstream ss(frame);
    EXPECT_FALSE(target.LoadState(ss));
    EXPECT_EQ(SaveBytes(target), before);
  };
  SeqRing<int64_t> target(4);
  target.push_back(11);
  target.push_back(12);
  for (const std::string& frame :
       {big_shift, end_before_front, bytes.substr(0, bytes.size() - 1)}) {
    expect_rejected(target, frame);
  }
  SeqRing<int64_t> small(3);
  small.push_back(11);
  expect_rejected(small, bytes);
}

}  // namespace
}  // namespace slick::window
