// Checkpoint/restore tests (DSMS fault tolerance): every serializable
// structure must round-trip mid-stream and then behave *identically* to the
// uninterrupted original — byte-for-byte answers over the rest of the
// stream — plus corruption rejection.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "util/rng.h"
#include "util/serde.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

// ---------------------------------------------------------------------------
// Serde primitives.
// ---------------------------------------------------------------------------

TEST(SerdeTest, PodRoundTrip) {
  std::stringstream ss;
  util::WritePod<int64_t>(ss, -42);
  util::WritePod<double>(ss, 3.25);
  int64_t i = 0;
  double d = 0;
  EXPECT_TRUE(util::ReadPod(ss, &i));
  EXPECT_TRUE(util::ReadPod(ss, &d));
  EXPECT_EQ(i, -42);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_FALSE(util::ReadPod(ss, &i));  // exhausted
}

TEST(SerdeTest, PodVecRoundTrip) {
  std::stringstream ss;
  const std::vector<uint32_t> v = {1, 2, 3, 4, 5};
  util::WritePodVec(ss, v);
  std::vector<uint32_t> w;
  EXPECT_TRUE(util::ReadPodVec(ss, &w));
  EXPECT_EQ(w, v);
}

TEST(SerdeTest, TagMismatchRejected) {
  std::stringstream ss;
  util::WriteTag(ss, util::MakeTag('A', 'B', 'C', '1'), 1);
  EXPECT_FALSE(util::ExpectTag(ss, util::MakeTag('A', 'B', 'C', '2'), 1));
  std::stringstream ss2;
  util::WriteTag(ss2, util::MakeTag('A', 'B', 'C', '1'), 1);
  EXPECT_FALSE(util::ExpectTag(ss2, util::MakeTag('A', 'B', 'C', '1'), 2));
}

TEST(SerdeTest, CorruptVecCountRejected) {
  std::stringstream ss;
  util::WritePod<uint64_t>(ss, UINT64_MAX);  // absurd element count
  std::vector<double> v;
  EXPECT_FALSE(util::ReadPodVec(ss, &v));
}

// ---------------------------------------------------------------------------
// Generic fixed-window round trip: snapshot at T, diverge-check to T+N.
// ---------------------------------------------------------------------------

template <typename Agg, typename MakeAgg>
void RunFixedWindowRoundTrip(MakeAgg make, uint64_t seed) {
  using Op = typename Agg::op_type;
  Agg original = make();
  util::SplitMix64 rng(seed);
  for (int i = 0; i < 137; ++i) {
    original.slide(Op::lift(static_cast<typename Op::input_type>(
        static_cast<int64_t>(rng.NextBounded(10000)))));
  }
  std::stringstream ss;
  original.SaveState(ss);
  Agg restored = make();
  ASSERT_TRUE(restored.LoadState(ss));
  for (int i = 0; i < 200; ++i) {
    const auto v = Op::lift(static_cast<typename Op::input_type>(
        static_cast<int64_t>(rng.NextBounded(10000))));
    original.slide(v);
    restored.slide(v);
    ASSERT_EQ(original.query(), restored.query()) << "i=" << i;
  }
}

TEST(CheckpointTest, NaiveWindow) {
  RunFixedWindowRoundTrip<window::NaiveWindow<ops::SumInt>>(
      [] { return window::NaiveWindow<ops::SumInt>(31); }, 1);
}
TEST(CheckpointTest, FlatFat) {
  RunFixedWindowRoundTrip<window::FlatFat<ops::SumInt>>(
      [] { return window::FlatFat<ops::SumInt>(31); }, 2);
}
TEST(CheckpointTest, FlatFit) {
  RunFixedWindowRoundTrip<window::FlatFit<ops::SumInt>>(
      [] { return window::FlatFit<ops::SumInt>(31); }, 3);
}
TEST(CheckpointTest, SlickDequeNonInv) {
  RunFixedWindowRoundTrip<core::SlickDequeNonInv<ops::MaxInt>>(
      [] { return core::SlickDequeNonInv<ops::MaxInt>(31); }, 4);
}

TEST(CheckpointTest, SlickDequeInvWithRanges) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  Agg original(31, {31, 7, 3});
  util::SplitMix64 rng(5);
  for (int i = 0; i < 100; ++i) {
    original.slide(static_cast<int64_t>(rng.NextBounded(1000)));
  }
  std::stringstream ss;
  original.SaveState(ss);
  Agg restored(1);  // ranges come from the checkpoint
  ASSERT_TRUE(restored.LoadState(ss));
  EXPECT_TRUE(restored.has_range(7));
  for (int i = 0; i < 150; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    original.slide(v);
    restored.slide(v);
    for (std::size_t r : {std::size_t{3}, std::size_t{7}, std::size_t{31}}) {
      ASSERT_EQ(original.query(r), restored.query(r));
    }
  }
}

// ---------------------------------------------------------------------------
// SDI1 frame validation. Layout: tag+version (8), partials as a counted
// vector, answers as a counted vector of {range u64, value}, pos u64.
// ---------------------------------------------------------------------------

struct InvAnswer {  // SlickDequeInv<SumInt>'s answer record
  uint64_t range;
  int64_t value;
};

std::string SdiFrame(const std::vector<int64_t>& partials,
                     const std::vector<InvAnswer>& answers, uint64_t pos) {
  std::stringstream ss;
  util::WriteTag(ss, util::MakeTag('S', 'D', 'I', '1'), 1);
  util::WritePodVec(ss, partials);
  util::WritePodVec(ss, answers);
  util::WritePod<uint64_t>(ss, pos);
  return ss.str();
}

std::string SaveInv(const core::SlickDequeInv<ops::SumInt>& agg) {
  std::stringstream ss;
  agg.SaveState(ss);
  return ss.str();
}

TEST(CheckpointTest, SlickDequeInvBadFramesRejectedTargetUntouched) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  Agg target(31, {31, 7, 3});
  for (int64_t v = 1; v <= 40; ++v) target.slide(v);
  Agg twin = target;  // same state, never offered a frame
  const std::string before = SaveInv(target);
  ASSERT_EQ(before, SaveInv(twin));

  const std::vector<std::string> frames = {
      // A range larger than the frame's own 4-partial window.
      SdiFrame({1, 2, 3, 4}, {{31, 10}}, 0),
      // Ranges out of order: the index and slide() assume ascending.
      SdiFrame({1, 2, 3, 4, 5, 6, 7, 8}, {{8, 36}, {3, 21}, {5, 30}}, 0),
      // A duplicated range.
      SdiFrame({1, 2, 3, 4, 5, 6, 7, 8}, {{3, 21}, {3, 21}}, 0),
  };
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::stringstream ss(frames[f]);
    EXPECT_FALSE(target.LoadState(ss)) << "frame " << f;
    EXPECT_EQ(SaveInv(target), before) << "frame " << f;
  }
  // The target still slides and answers over its own geometry.
  for (int64_t v = 41; v <= 100; ++v) {
    target.slide(v);
    twin.slide(v);
    for (std::size_t r : {std::size_t{3}, std::size_t{7}, std::size_t{31}}) {
      ASSERT_EQ(target.query(r), twin.query(r)) << "v=" << v << " r=" << r;
    }
  }
}

template <typename Agg>
std::string SaveBytes(const Agg& agg) {
  std::stringstream ss;
  agg.SaveState(ss);
  return ss.str();
}

// Offers every frame to `target` and expects each to be rejected with the
// target's SaveState bytes unchanged (the transactional LoadState contract).
template <typename Agg>
void ExpectRejectedUntouched(Agg& target,
                             const std::vector<std::string>& frames) {
  const std::string before = SaveBytes(target);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::stringstream ss(frames[f]);
    EXPECT_FALSE(target.LoadState(ss)) << "frame " << f;
    EXPECT_EQ(SaveBytes(target), before) << "frame " << f;
  }
}

TEST(CheckpointTest, NaiveWindowBadFramesRejectedTargetUntouched) {
  window::NaiveWindow<ops::SumInt> target(8);
  for (int64_t v = 1; v <= 20; ++v) target.slide(v);
  // A write position past the frame's own partials.
  std::stringstream pos_past_end;
  util::WriteTag(pos_past_end, util::MakeTag('N', 'A', 'I', '1'), 1);
  util::WriteValVec(pos_past_end, std::vector<int64_t>{1, 2, 3, 4});
  util::WritePod<uint64_t>(pos_past_end, 4);
  // Another stream's valid frame, truncated before its write position.
  window::NaiveWindow<ops::SumInt> other(5);
  for (int64_t v = 100; v <= 107; ++v) other.slide(v);
  const std::string whole = SaveBytes(other);
  ExpectRejectedUntouched(
      target, {pos_past_end.str(), whole.substr(0, whole.size() - 3)});
  EXPECT_EQ(target.query(), 13 + 14 + 15 + 16 + 17 + 18 + 19 + 20);
}

TEST(CheckpointTest, SlickDequeInvRestoreAdoptsNewRangeSet) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  const std::vector<std::size_t> ranges = {1, 5, 17, 40, 64};
  Agg original(64, ranges);
  util::SplitMix64 rng(9);
  for (int i = 0; i < 150; ++i) {
    original.slide(static_cast<int64_t>(rng.NextBounded(1000)));
  }
  std::stringstream ss;
  original.SaveState(ss);
  Agg restored(31, {31, 7, 3});
  ASSERT_TRUE(restored.LoadState(ss));
  EXPECT_EQ(restored.window_size(), 64u);
  for (std::size_t r = 1; r <= 64; ++r) {
    const bool registered =
        std::find(ranges.begin(), ranges.end(), r) != ranges.end();
    EXPECT_EQ(restored.has_range(r), registered) << "r=" << r;
  }
  for (int i = 0; i < 100; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    original.slide(v);
    restored.slide(v);
    for (std::size_t r : ranges) {
      ASSERT_EQ(original.query(r), restored.query(r)) << "i=" << i;
    }
  }
  EXPECT_EQ(SaveInv(original), SaveInv(restored));
}

// ---------------------------------------------------------------------------
// FIFO aggregators, including DABA's region pointers.
// ---------------------------------------------------------------------------

template <typename Agg>
void RunFifoRoundTrip(uint64_t seed) {
  using Op = typename Agg::op_type;
  Agg original;
  util::SplitMix64 rng(seed);
  for (int i = 0; i < 150; ++i) {
    if (original.size() >= 24) original.evict();
    original.insert(
        Op::lift(static_cast<int64_t>(rng.NextBounded(10000))));
  }
  std::stringstream ss;
  original.SaveState(ss);
  Agg restored;
  ASSERT_TRUE(restored.LoadState(ss));
  ASSERT_EQ(restored.size(), original.size());
  for (int i = 0; i < 300; ++i) {
    const auto v = Op::lift(static_cast<int64_t>(rng.NextBounded(10000)));
    if (original.size() >= 24) {
      original.evict();
      restored.evict();
    }
    original.insert(v);
    restored.insert(v);
    ASSERT_EQ(original.query(), restored.query()) << "i=" << i;
  }
}

TEST(CheckpointTest, TwoStacks) { RunFifoRoundTrip<window::TwoStacks<ops::SumInt>>(6); }

// ---------------------------------------------------------------------------
// TwoStacks at a wrapped buffer position. TWS3 byte layout (versioned, so
// these offsets are stable for 4 live int64 entries):
//   [0]  TWS3 tag+version (8)   [8] front length u64
//   [16] vals count u64         [24] 4 vals, stream order
//   [56] aggs count u64         [64] 4 aggs, stream order    [96] end
// ---------------------------------------------------------------------------

/// A capacity-8 TwoStacks (sized by its first bulk insert) whose front
/// region wraps the buffer's seam — slots [7,8)+[0,1) — with the back
/// region [1,3) non-empty.
window::TwoStacks<ops::SumInt> WrappedTwoStacks() {
  window::TwoStacks<ops::SumInt> agg;
  const int64_t fill[8] = {5, -3, 8, 13, -21, 34, 2, 1};
  agg.BulkInsert(fill, 8);
  for (int i = 0; i < 8; ++i) agg.evict();
  for (int64_t v : {4, 9, -6, 7, 11, -2}) agg.insert(v);
  agg.evict();
  for (int64_t v : {3, 12, -8}) agg.insert(v);
  for (int i = 0; i < 6; ++i) agg.evict();
  agg.insert(15);
  agg.insert(-1);
  return agg;
}

std::string SaveTwoStacks(const window::TwoStacks<ops::SumInt>& agg) {
  std::stringstream ss;
  agg.SaveState(ss);
  return ss.str();
}

bool LoadTwoStacks(const std::string& bytes,
                   window::TwoStacks<ops::SumInt>* agg) {
  std::stringstream ss(bytes);
  return agg->LoadState(ss);
}

TEST(CheckpointTest, TwoStacksWrappedRoundTrip) {
  window::TwoStacks<ops::SumInt> original = WrappedTwoStacks();
  ASSERT_EQ(original.capacity(), 8u);
  ASSERT_EQ(original.size(), 4u);
  ASSERT_EQ(original.query(), 12 - 8 + 15 - 1);
  window::TwoStacks<ops::SumInt> restored;
  ASSERT_TRUE(LoadTwoStacks(SaveTwoStacks(original), &restored));
  ASSERT_EQ(restored.size(), original.size());
  util::SplitMix64 rng(12);
  for (int i = 0; i < 100; ++i) {
    if (original.size() >= 6) {
      original.evict();
      restored.evict();
    }
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
    original.insert(v);
    restored.insert(v);
    ASSERT_EQ(original.query(), restored.query()) << "i=" << i;
  }
}

TEST(CheckpointTest, TwoStacksTruncatedRejected) {
  const std::string bytes = SaveTwoStacks(WrappedTwoStacks());
  ASSERT_EQ(bytes.size(), 96u);
  for (std::size_t cut : {std::size_t{0}, std::size_t{6}, std::size_t{12},
                          std::size_t{20}, std::size_t{40}, std::size_t{60},
                          bytes.size() - 1}) {
    window::TwoStacks<ops::SumInt> fresh;
    EXPECT_FALSE(LoadTwoStacks(bytes.substr(0, cut), &fresh))
        << "cut=" << cut;
  }
}

TEST(CheckpointTest, TwoStacksInconsistentRejected) {
  const std::string bytes = SaveTwoStacks(WrappedTwoStacks());
  window::TwoStacks<ops::SumInt> target;
  for (int64_t v : {7, 3, 5}) target.insert(v);

  std::string long_front = bytes;
  long_front[8] = 0x05;  // front length 5 > 4 live entries
  EXPECT_FALSE(LoadTwoStacks(long_front, &target));

  std::string short_aggs = bytes;
  short_aggs[56] = 0x03;  // 4 values but 3 aggregates
  EXPECT_FALSE(LoadTwoStacks(short_aggs, &target));

  // Rejected loads leave the target's own window in place.
  EXPECT_EQ(target.size(), 3u);
  EXPECT_EQ(target.query(), 15);
}
TEST(CheckpointTest, SubtractOnEvict) {
  RunFifoRoundTrip<core::SubtractOnEvict<ops::SumInt>>(7);
}
TEST(CheckpointTest, MonotonicDeque) {
  RunFifoRoundTrip<core::SlickDequeNonInv<ops::MaxInt>>(8);
}

TEST(CheckpointTest, DabaRestoresRegionPointers) {
  RunFifoRoundTrip<window::Daba<ops::SumInt>>(9);
  // And the restored instance satisfies the full region invariants.
  window::Daba<ops::SumInt> original;
  util::SplitMix64 rng(10);
  for (int i = 0; i < 77; ++i) {
    if (original.size() >= 16) original.evict();
    original.insert(static_cast<int64_t>(rng.NextBounded(100)));
  }
  std::stringstream ss;
  original.SaveState(ss);
  window::Daba<ops::SumInt> restored;
  ASSERT_TRUE(restored.LoadState(ss));
  EXPECT_TRUE(restored.CheckInvariants());
}

// ---------------------------------------------------------------------------
// Pinned checkpoint bytes. Each hex string is the SaveState of one short
// fixed stream, made by the code that first pinned it. The frames holding
// a CAQ1 ring were made with the chunked-array queue that first wrote them,
// and the CAQ1 frame (now window::SeqRing's) must keep every byte. Loading
// the pinned frame and saving it again must also give it back.
// ---------------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// insert 9, 4, 7; BulkInsert {3, 8, 1, 6}; evict; BulkEvict(2); insert 5.
template <typename Agg>
void RunGoldenFifoStream(Agg& agg) {
  using V = typename Agg::value_type;
  for (const int64_t v : {9, 4, 7}) agg.insert(static_cast<V>(v));
  const std::vector<V> batch = {3, 8, 1, 6};
  agg.BulkInsert(batch.data(), batch.size());
  agg.evict();
  agg.BulkEvict(2);
  agg.insert(5);
}

template <typename Agg>
void ExpectGoldenBytes(const Agg& agg, const std::string& golden_hex,
                       Agg restored) {
  const std::string bytes = SaveBytes(agg);
  EXPECT_EQ(Hex(bytes), golden_hex);
  std::stringstream ss(bytes);
  ASSERT_TRUE(restored.LoadState(ss));
  EXPECT_EQ(Hex(SaveBytes(restored)), golden_hex);
}

TEST(CheckpointGoldenTest, Dab1) {
  window::Daba<ops::SumInt> agg;
  RunGoldenFifoStream(agg);
  ExpectGoldenBytes(agg,
      "4441423101000000434151310100000006000000030000000000000008000000"
      "000000000300000000000000120000000000000008000000000000000f000000"
      "0000000001000000000000000700000000000000060000000000000006000000"
      "0000000005000000000000000500000000000000050000000000000005000000"
      "00000000050000000000000007000000000000000f00000000000000",
      window::Daba<ops::SumInt>());
}

TEST(CheckpointGoldenTest, Mon1) {
  core::SlickDequeNonInv<ops::MaxInt> agg;
  RunGoldenFifoStream(agg);
  ExpectGoldenBytes(agg,
      "4d4f4e3101000000434151310100000006000000010000000000000004000000"
      "0000000004000000000000000800000000000000060000000000000006000000"
      "0000000007000000000000000500000000000000080000000000000003000000"
      "000000000500000000000000",
      core::SlickDequeNonInv<ops::MaxInt>());
}

TEST(CheckpointGoldenTest, Soe1) {
  core::SubtractOnEvict<ops::SumInt> agg;
  RunGoldenFifoStream(agg);
  ExpectGoldenBytes(agg,
      "534f453101000000434151310100000006000000030000000000000008000000"
      "0000000003000000000000000800000000000000010000000000000006000000"
      "0000000005000000000000001700000000000000",
      core::SubtractOnEvict<ops::SumInt>());
}

TEST(CheckpointGoldenTest, Sdn1Max) {
  // window 6: slide 9, 4, 7; BulkSlide {3, 8, 1, 6}; slide 5;
  // BulkSlide {2, 2}.
  core::SlickDequeNonInv<ops::Max> agg(6);
  for (const double v : {9.0, 4.0, 7.0}) agg.slide(v);
  const std::vector<double> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  agg.slide(5);
  const std::vector<double> pair = {2, 2};
  agg.BulkSlide(pair.data(), pair.size());
  ExpectGoldenBytes(agg,
      "53444e3101000000060000000000000004000000000000000300000000000000"
      "4341513101000000060000000100000000000000050000000000000004000000"
      "0000000000000000000020400000000000000000000000000000184001000000"
      "00000000000000000000144003000000000000000000000000000040",
      core::SlickDequeNonInv<ops::Max>(3));
}

TEST(CheckpointGoldenTest, Sdn1AlphaMax) {
  // window 4: slide pear, fig, kiwi; BulkSlide {apple, lime, fig};
  // slide date.
  core::SlickDequeNonInv<ops::AlphaMax> agg(4);
  for (const char* v : {"pear", "fig", "kiwi"}) agg.slide(v);
  const std::vector<std::string> batch = {"apple", "lime", "fig"};
  agg.BulkSlide(batch.data(), batch.size());
  agg.slide("date");
  ExpectGoldenBytes(agg,
      "53444e3101000000040000000000000003000000000000000200000000000000"
      "4341513101000000060000000100000000000000040000000000000000000000"
      "0000000004000000000000006c696d6501000000000000000300000000000000"
      "6669670200000000000000040000000000000064617465",
      core::SlickDequeNonInv<ops::AlphaMax>(9));
}

TEST(CheckpointGoldenTest, Fat1Sum) {
  // window 6 (8 leaves, two padding): slide 9, 4, 7; BulkSlide
  // {3, 8, 1, 6}; slide 5.
  window::FlatFat<ops::SumInt> agg(6);
  for (const int64_t v : {9, 4, 7}) agg.slide(v);
  const std::vector<int64_t> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  agg.slide(5);
  ExpectGoldenBytes(agg,
      "4641543101000000060000000000000010000000000000000000000000000000"
      "1e00000000000000150000000000000009000000000000000b00000000000000"
      "0a00000000000000090000000000000000000000000000000600000000000000"
      "0500000000000000070000000000000003000000000000000800000000000000"
      "0100000000000000000000000000000000000000000000000200000000000000",
      window::FlatFat<ops::SumInt>(3));
}

TEST(CheckpointGoldenTest, Fat1Max) {
  // window 5 (identity -inf in slot 0 and the three padding leaves):
  // slide 9, 4, 7; BulkSlide {3, 8, 1, 6}; UpdateAt(1, 2.5).
  window::FlatFat<ops::Max> agg(5);
  for (const double v : {9.0, 4.0, 7.0}) agg.slide(v);
  const std::vector<double> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  agg.UpdateAt(1, 2.5);
  ExpectGoldenBytes(agg,
      "464154310100000005000000000000001000000000000000000000000000f0ff"
      "00000000000020400000000000001c4000000000000020400000000000001840"
      "0000000000001c400000000000002040000000000000f0ff0000000000000440"
      "00000000000018400000000000001c4000000000000008400000000000002040"
      "000000000000f0ff000000000000f0ff000000000000f0ff0200000000000000",
      window::FlatFat<ops::Max>(7));
}

TEST(CheckpointGoldenTest, Sdi1SumRanges) {
  // window 6, ranges {2, 4, 6}: slide 9, 4, 7; BulkSlide {3, 8, 1, 6};
  // slide 5.
  core::SlickDequeInv<ops::SumInt> agg(6, {4, 2, 6});
  for (const int64_t v : {9, 4, 7}) agg.slide(v);
  const std::vector<int64_t> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  agg.slide(5);
  ExpectGoldenBytes(agg,
      "5344493101000000060000000000000006000000000000000500000000000000"
      "0700000000000000030000000000000008000000000000000100000000000000"
      "030000000000000002000000000000000b000000000000000400000000000000"
      "140000000000000006000000000000001e000000000000000200000000000000",
      core::SlickDequeInv<ops::SumInt>(3));
}

TEST(CheckpointGoldenTest, Tws3) {
  window::TwoStacks<ops::SumInt> agg;
  RunGoldenFifoStream(agg);
  ExpectGoldenBytes(agg,
      "5457533301000000040000000000000005000000000000000300000000000000"
      "0800000000000000010000000000000006000000000000000500000000000000"
      "050000000000000012000000000000000f000000000000000700000000000000"
      "06000000000000000500000000000000",
      window::TwoStacks<ops::SumInt>());
}

TEST(CheckpointGoldenTest, Fit1Sum) {
  // window 6: slide 9, 4, 7; BulkSlide {3, 8, 1, 6}; query(4), which
  // compresses jump pointers; slide 5.
  window::FlatFit<ops::SumInt> agg(6);
  for (const int64_t v : {9, 4, 7}) agg.slide(v);
  const std::vector<int64_t> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  (void)agg.query(4);
  agg.slide(5);
  ExpectGoldenBytes(agg,
      "4649543101000000060000000000000006000000000000000500000000000000"
      "07000000000000000c0000000000000009000000000000000100000000000000"
      "0600000000000000010000000200000003000000000000000000000000000000"
      "02000000000000000100000000000000",
      window::FlatFit<ops::SumInt>(3));
}

TEST(CheckpointGoldenTest, Nai1Sum) {
  // window 6: slide 9, 4, 7; BulkSlide {3, 8, 1, 6}; slide 5;
  // UpdateAt(1, 2).
  window::NaiveWindow<ops::SumInt> agg(6);
  for (const int64_t v : {9, 4, 7}) agg.slide(v);
  const std::vector<int64_t> batch = {3, 8, 1, 6};
  agg.BulkSlide(batch.data(), batch.size());
  agg.slide(5);
  agg.UpdateAt(1, 2);
  ExpectGoldenBytes(agg,
      "4e41493101000000060000000000000002000000000000000500000000000000"
      "0700000000000000030000000000000008000000000000000100000000000000"
      "0200000000000000",
      window::NaiveWindow<ops::SumInt>(3));
}

// ---------------------------------------------------------------------------
// FIFO frames rejected with the target untouched.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, DabaBadFramesRejectedTargetUntouched) {
  window::Daba<ops::SumInt> target;
  for (int64_t v = 1; v <= 30; ++v) {
    if (target.size() >= 9) target.evict();
    target.insert(v);
  }
  window::Daba<ops::SumInt> other;
  RunGoldenFifoStream(other);
  const std::string whole = SaveBytes(other);
  // DAB1 tag (8), CAQ1 frame (28 + 16 per entry), then l, r, a, b, delta.
  const std::size_t pointers = 8 + 28 + 16 * other.size();
  ASSERT_EQ(whole.size(), pointers + 5 * 8);
  uint64_t r = 0;
  std::memcpy(&r, whole.data() + pointers + 8, sizeof r);
  std::string l_past_r = whole;
  const uint64_t l = r + 1;
  std::memcpy(l_past_r.data() + pointers, &l, sizeof l);
  ExpectRejectedUntouched(target, {l_past_r, whole.substr(0, pointers)});
  EXPECT_TRUE(target.CheckInvariants());
  EXPECT_EQ(target.query(), 22 + 23 + 24 + 25 + 26 + 27 + 28 + 29 + 30);
}

// A MON1 frame for MaxInt from its parts: nodes are (arrival seq, value).
std::string MonFrame(const std::vector<std::pair<uint64_t, int64_t>>& nodes,
                     uint64_t next, uint64_t oldest, uint64_t live) {
  std::stringstream ss;
  util::WriteTag(ss, util::MakeTag('M', 'O', 'N', '1'), 1);
  util::WriteTag(ss, util::MakeTag('C', 'A', 'Q', '1'), 1);
  util::WritePod<uint32_t>(ss, 6);
  util::WritePod<uint64_t>(ss, 40);
  util::WritePod<uint64_t>(ss, 40 + nodes.size());
  for (const auto& [seq, val] : nodes) {
    util::WritePod(ss, seq);
    util::WritePod(ss, val);
  }
  util::WritePod(ss, next);
  util::WritePod(ss, oldest);
  util::WritePod(ss, live);
  return ss.str();
}

TEST(CheckpointTest, MonotonicDequeBadFramesRejectedTargetUntouched) {
  using Agg = core::SlickDequeNonInv<ops::MaxInt>;
  // Window seqs [10, 15): 90 at 11, 50 at 13, 20 at 14 (the newest).
  const std::string valid =
      MonFrame({{11, 90}, {13, 50}, {14, 20}}, 15, 10, 5);
  {
    Agg fresh;
    std::stringstream ss(valid);
    ASSERT_TRUE(fresh.LoadState(ss));
    EXPECT_EQ(fresh.query(), 90);
    EXPECT_EQ(fresh.size(), 5u);
  }
  Agg target;
  for (const int64_t v : {7, 3, 5, 1}) target.insert(v);
  target.evict();
  ExpectRejectedUntouched(
      target,
      {// seqs not strictly increasing
       MonFrame({{11, 90}, {11, 50}, {14, 20}}, 15, 10, 5),
       MonFrame({{13, 90}, {11, 50}, {14, 20}}, 15, 10, 5),
       // a seq below oldest_seq, a seq at next_seq
       MonFrame({{9, 90}, {13, 50}, {14, 20}}, 15, 10, 5),
       MonFrame({{11, 90}, {13, 50}, {15, 20}}, 15, 10, 5),
       // the tail is not the newest element
       MonFrame({{11, 90}, {13, 50}}, 15, 10, 5),
       // 95 absorbs its older neighbour 90: insert() would have popped it
       MonFrame({{11, 90}, {13, 95}, {14, 20}}, 15, 10, 5),
       // live != next_seq - oldest_seq, below and above
       MonFrame({{11, 90}, {13, 50}, {14, 20}}, 15, 10, 4),
       MonFrame({{11, 90}, {13, 50}, {14, 20}}, 15, 10, 6),
       // truncated inside the counters and inside the queue
       valid.substr(0, valid.size() - 1), valid.substr(0, 50)});
  EXPECT_EQ(target.query(), 5);
  EXPECT_EQ(target.size(), 3u);
}

TEST(CheckpointTest, SubtractOnEvictBadFramesRejectedTargetUntouched) {
  core::SubtractOnEvict<ops::SumInt> target;
  for (const int64_t v : {7, 3, 5}) target.insert(v);
  core::SubtractOnEvict<ops::SumInt> other;
  RunGoldenFifoStream(other);
  const std::string whole = SaveBytes(other);
  // Truncated before `running`, and inside the queue.
  ExpectRejectedUntouched(target, {whole.substr(0, whole.size() - 8),
                                   whole.substr(0, whole.size() - 12)});
  EXPECT_EQ(target.query(), 15);
}

// ---------------------------------------------------------------------------
// Corruption handling.
// ---------------------------------------------------------------------------

// FAT1 layout: [0] tag+version (8)  [8] window u64  [16] node count u64
// [24] nodes, 8 bytes each for SumInt (slot 0 unused, interior 1..leaves-1,
// leaves after)  then pos u64.
TEST(CheckpointTest, FlatFatInteriorDisagreeingWithLeavesIsRebuilt) {
  constexpr std::size_t kWindow = 11;  // 16 leaves, five padding
  constexpr std::size_t kLeaves = 16;
  window::FlatFat<ops::SumInt> agg(kWindow);
  window::NaiveWindow<ops::SumInt> naive(kWindow);
  util::SplitMix64 rng(29);
  for (int i = 0; i < 40; ++i) {
    const auto v = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
    agg.slide(v);
    naive.slide(v);
  }
  const std::string frame = SaveBytes(agg);
  ASSERT_EQ(frame.size(), 24 + 2 * kLeaves * 8 + 8);
  const auto poke = [](std::string* bytes, std::size_t node, int64_t v) {
    std::memcpy(bytes->data() + 24 + node * 8, &v, sizeof(v));
  };

  // Every interior node (the root included), a padding leaf and the unused
  // slot 0 disagree with the window's leaves; the leaves and pos are intact.
  std::string bad = frame;
  for (std::size_t node = 0; node < kLeaves; ++node) {
    poke(&bad, node, 1'000'000 + static_cast<int64_t>(node));
  }
  poke(&bad, kLeaves + kWindow + 2, 777);
  window::FlatFat<ops::SumInt> loaded(kWindow);
  std::stringstream in(bad);
  ASSERT_TRUE(loaded.LoadState(in));
  EXPECT_EQ(SaveBytes(loaded), frame) << "rebuilt tree equals the original";
  for (std::size_t r = 1; r <= kWindow; ++r) {
    EXPECT_EQ(loaded.query(r), naive.query(r)) << "range=" << r;
  }
  for (int i = 0; i < 2 * static_cast<int>(kWindow); ++i) {
    const auto v = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
    loaded.slide(v);
    naive.slide(v);
    for (std::size_t r = 1; r <= kWindow; ++r) {
      ASSERT_EQ(loaded.query(r), naive.query(r)) << "range=" << r;
    }
  }

  // A consistent frame reloads bit-identically.
  window::FlatFat<ops::SumInt> again(3);
  std::stringstream consistent(frame);
  ASSERT_TRUE(again.LoadState(consistent));
  EXPECT_EQ(SaveBytes(again), frame);
}

TEST(CheckpointTest, TruncatedStreamRejected) {
  window::FlatFat<ops::SumInt> agg(16);
  for (int64_t i = 0; i < 20; ++i) agg.slide(i);
  std::stringstream ss;
  agg.SaveState(ss);
  const std::string full = ss.str();
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, full.size() / 2,
                          full.size() - 1}) {
    std::stringstream truncated(full.substr(0, cut));
    window::FlatFat<ops::SumInt> fresh(16);
    EXPECT_FALSE(fresh.LoadState(truncated)) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// SlickDeque (Non-Inv) payload validation: the header checks alone used to
// accept a corrupt deque (node pos >= window, non-monotone ages, absorbed
// values), which later poisons the in-range and expiry tests. LoadState must
// cross-validate the restored nodes.
//
// SDN1/CAQ1 byte layout (versioned, so these offsets are stable):
//   [0]  SDN1 tag+version (8)   [8] window u64   [16] pos u64   [24] cur u64
//   [32] CAQ1 tag+version (8)   [40] shift u32   [44] head u64  [52] tail u64
//   [60] nodes, 16 bytes each: {pos u64, val i64}
// ---------------------------------------------------------------------------

std::string SaveNonInvMax(core::SlickDequeNonInv<ops::MaxInt>& agg) {
  std::stringstream ss;
  agg.SaveState(ss);
  return ss.str();
}

bool LoadNonInvMax(const std::string& bytes) {
  std::stringstream ss(bytes);
  core::SlickDequeNonInv<ops::MaxInt> fresh(8);
  return fresh.LoadState(ss);
}

class NonInvPayloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Strictly descending input keeps every node: pos 0..7, vals 100..93,
    // pos_ = 0, cur_ = 7 (head legitimately sits at the write position).
    core::SlickDequeNonInv<ops::MaxInt> agg(8);
    for (int64_t i = 0; i < 8; ++i) agg.slide(100 - i);
    bytes_ = SaveNonInvMax(agg);
  }
  static constexpr std::size_t kNodes = 60;  // first node's offset
  std::string bytes_;
};

TEST_F(NonInvPayloadTest, IntactPayloadRoundTrips) {
  // Baseline: the unmodified checkpoint — including a head node at pos_,
  // which is a genuine full-window state — must still be accepted.
  EXPECT_TRUE(LoadNonInvMax(bytes_));
}

TEST_F(NonInvPayloadTest, NodePosBeyondWindowRejected) {
  std::string corrupt = bytes_;
  corrupt[kNodes] = 0x09;  // head node pos: 0 -> 9, but window is 8
  EXPECT_FALSE(LoadNonInvMax(corrupt));
}

TEST_F(NonInvPayloadTest, NonMonotoneAgesRejected) {
  std::string corrupt = bytes_;
  // Swap the first two nodes: ages go 6, 7, ... instead of 7, 6, ...
  for (std::size_t i = 0; i < 16; ++i) {
    std::swap(corrupt[kNodes + i], corrupt[kNodes + 16 + i]);
  }
  EXPECT_FALSE(LoadNonInvMax(corrupt));
}

TEST_F(NonInvPayloadTest, AbsorbedValueRejected) {
  std::string corrupt = bytes_;
  // Bit-flip the second node's value from 99 to 227 (> the head's 100):
  // slide() would have popped the head, so the pair proves corruption.
  corrupt[kNodes + 16 + 8] = static_cast<char>(0xE3);
  EXPECT_FALSE(LoadNonInvMax(corrupt));
}

TEST_F(NonInvPayloadTest, RejectedLoadLeavesTargetUntouched) {
  // A failed LoadState must not half-commit: the target keeps answering
  // from its own pre-load window, not from the rejected payload's nodes.
  core::SlickDequeNonInv<ops::MaxInt> agg(4);
  for (int64_t v : {7, 3, 5}) agg.slide(v);
  std::string corrupt = bytes_;
  corrupt[kNodes + 16 + 8] = static_cast<char>(0xE3);
  std::stringstream ss(corrupt);
  ASSERT_FALSE(agg.LoadState(ss));
  EXPECT_EQ(agg.query(), 7);
  agg.slide(9);
  EXPECT_EQ(agg.query(), 9);
}

TEST_F(NonInvPayloadTest, TailNotAtNewestPositionRejected) {
  // A sparser deque: nodes at pos {0, 1, 2, 5} after 40 absorbs 10 and 5.
  core::SlickDequeNonInv<ops::MaxInt> agg(8);
  for (int64_t v : {100, 90, 50, 10, 5, 40}) agg.slide(v);
  std::string corrupt = SaveNonInvMax(agg);
  // Advance the header's pos_/cur_ by one (pos 6 -> 7, cur 5 -> 6): node
  // ages stay strictly decreasing, but the tail node (pos 5) no longer
  // matches cur — slide() always appends the newest partial at cur.
  corrupt[16] = 0x07;
  corrupt[24] = 0x06;
  EXPECT_FALSE(LoadNonInvMax(corrupt));
}

TEST_F(NonInvPayloadTest, WritePosNotAfterNewestRejectedTargetUntouched) {
  // slide() always writes the next partial one past the newest, so a
  // non-empty frame with pos != (cur + 1) % window is corrupt even when
  // its nodes are consistent with cur. The target must keep its own state
  // byte for byte.
  std::string corrupt = bytes_;
  corrupt[16] = 0x03;  // pos 0 -> 3 with cur 7
  core::SlickDequeNonInv<ops::MaxInt> agg(8, {8, 3});
  for (int64_t v : {7, 3, 5, 1}) agg.slide(v);
  const std::string before = SaveNonInvMax(agg);
  std::stringstream ss(corrupt);
  ASSERT_FALSE(agg.LoadState(ss));
  EXPECT_EQ(SaveNonInvMax(agg), before);
  EXPECT_EQ(agg.query(3), 5);
  agg.slide(9);
  EXPECT_EQ(agg.query(), 9);
}

TEST_F(NonInvPayloadTest, EmptyDequeWithNonzeroCursorRejected) {
  core::SlickDequeNonInv<ops::MaxInt> pristine(8);
  std::string corrupt = SaveNonInvMax(pristine);
  EXPECT_TRUE(LoadNonInvMax(corrupt));  // pristine round trip is fine
  corrupt[16] = 0x01;  // pos_ = 1 with an empty deque: impossible state
  EXPECT_FALSE(LoadNonInvMax(corrupt));
}

TEST_F(NonInvPayloadTest, TruncatedPayloadRejected) {
  for (std::size_t cut :
       {std::size_t{0}, std::size_t{12}, std::size_t{33}, std::size_t{59},
        kNodes + 5, bytes_.size() - 1}) {
    EXPECT_FALSE(LoadNonInvMax(bytes_.substr(0, cut))) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// FlatFIT jump-pointer validation: query() hops along jump_ until it meets
// cur_, so a frame whose pointers leave the window or never reach cur_
// must be rejected even when its CRC is intact.
//
// FIT1 byte layout for window 8 over int64:
//   [0]  FIT1 tag+version (8)   [8] vals count u64   [16] 8 vals
//   [80] jump count u64         [88] 8 jumps u32     [120] pos u64
//   [128] cur u64
// ---------------------------------------------------------------------------

TEST(CheckpointTest, FlatFitBadJumpPointersRejected) {
  window::FlatFit<ops::SumInt> agg(8);
  for (int64_t i = 0; i < 11; ++i) agg.slide(i * 7);
  (void)agg.query(5);  // compress part of the index
  std::stringstream raw;
  agg.SaveState(raw);
  const std::string bytes = raw.str();
  ASSERT_EQ(bytes.size(), 136u);
  uint64_t cur = 0;
  std::memcpy(&cur, bytes.data() + 128, sizeof(cur));
  ASSERT_LT(cur, 8u);
  const std::size_t a = (cur + 2) % 8;  // both off cur_
  const std::size_t b = (cur + 5) % 8;
  const auto with_jumps = [&](std::initializer_list<
                              std::pair<std::size_t, uint32_t>> edits) {
    std::string out = bytes;
    for (const auto& [i, target] : edits) {
      std::memcpy(out.data() + 88 + 4 * i, &target, sizeof(target));
    }
    return out;
  };
  const auto load_framed = [](const std::string& payload) {
    std::stringstream framed;
    util::WriteFramed(framed, payload);
    window::FlatFit<ops::SumInt> fresh(8);
    return util::LoadStateFramed(&fresh, framed);
  };

  EXPECT_EQ(load_framed(bytes), util::FrameError::kOk);
  // Out of range: query() would read vals_[8].
  EXPECT_EQ(load_framed(with_jumps({{a, 8u}})),
            util::FrameError::kBadPayload);
  EXPECT_EQ(load_framed(with_jumps({{a, 200u}})),
            util::FrameError::kBadPayload);
  // A two-node cycle that never reaches cur_: query() would spin forever.
  EXPECT_EQ(load_framed(with_jumps({{a, static_cast<uint32_t>(b)},
                                    {b, static_cast<uint32_t>(a)}})),
            util::FrameError::kBadPayload);
  // A self-loop is the shortest such cycle.
  EXPECT_EQ(load_framed(with_jumps({{a, static_cast<uint32_t>(a)}})),
            util::FrameError::kBadPayload);
}

TEST(CheckpointTest, WrongStructureTagRejected) {
  window::NaiveWindow<ops::SumInt> naive(8);
  naive.slide(1);
  std::stringstream ss;
  naive.SaveState(ss);
  window::FlatFat<ops::SumInt> fat(8);
  EXPECT_FALSE(fat.LoadState(ss));  // NAI1 tag, FAT1 expected
}

// ---------------------------------------------------------------------------
// CRC32-framed checkpoint container (DESIGN.md §12.2): magic + version +
// length + CRC around every SaveState payload, with typed errors that
// distinguish truncation from bit rot from foreign bytes — and a
// compatibility read for the unframed PR 1 streams.
//
// Frame layout: [0] magic 'SLKF' u32  [4] version u32  [8] payload len u64
//               [16] crc32 u32        [20] payload bytes.
// ---------------------------------------------------------------------------

TEST(FramedSerdeTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  EXPECT_EQ(util::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32(""), 0u);
}

TEST(FramedSerdeTest, FrameRoundTrip) {
  std::stringstream ss;
  util::WriteFramed(ss, "hello, frames");
  std::string payload;
  EXPECT_EQ(util::ReadFramed(ss, &payload), util::FrameError::kOk);
  EXPECT_EQ(payload, "hello, frames");
}

TEST(FramedSerdeTest, TypedErrorsDistinguishCorruptionModes) {
  std::stringstream ss;
  util::WriteFramed(ss, "payload bytes under test");
  const std::string frame = ss.str();
  std::string out;

  {  // Foreign bytes: wrong magic.
    std::string bad = frame;
    bad[0] ^= 0x01;
    std::stringstream in(bad);
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kBadMagic);
  }
  {  // Right container, future version.
    std::string bad = frame;
    bad[4] ^= 0x02;
    std::stringstream in(bad);
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kBadVersion);
  }
  {  // Single bit flip in the payload: CRC catches it.
    std::string bad = frame;
    bad[20] ^= 0x10;
    std::stringstream in(bad);
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kCrcMismatch);
  }
  {  // Single bit flip in the stored CRC itself.
    std::string bad = frame;
    bad[16] ^= 0x40;
    std::stringstream in(bad);
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kCrcMismatch);
  }
  // Truncation at every boundary: header, length, CRC, mid-payload.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          std::size_t{17}, frame.size() - 1}) {
    std::stringstream in(frame.substr(0, cut));
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kTruncated)
        << "cut=" << cut;
  }
  {  // Absurd payload length is truncation, not an allocation attempt.
    std::string bad = frame;
    for (std::size_t i = 8; i < 16; ++i) bad[i] = static_cast<char>(0xFF);
    std::stringstream in(bad);
    EXPECT_EQ(util::ReadFramed(in, &out), util::FrameError::kTruncated);
  }
  EXPECT_STREQ(util::FrameErrorName(util::FrameError::kCrcMismatch),
               "crc-mismatch");
}

TEST(FramedSerdeTest, SaveStateFramedRoundTrip) {
  window::FlatFat<ops::SumInt> agg(16);
  for (int64_t i = 0; i < 20; ++i) agg.slide(i);
  std::stringstream ss;
  util::SaveStateFramed(agg, ss);
  window::FlatFat<ops::SumInt> fresh(16);
  EXPECT_EQ(util::LoadStateFramed(&fresh, ss), util::FrameError::kOk);
  for (int64_t i = 0; i < 40; ++i) {
    agg.slide(i * 3);
    fresh.slide(i * 3);
    ASSERT_EQ(agg.query(), fresh.query());
  }
}

TEST(FramedSerdeTest, FramedLoadRejectsFlippedBit) {
  core::SlickDequeNonInv<ops::MaxInt> agg(8);
  for (int64_t i = 0; i < 8; ++i) agg.slide(100 - i);
  std::stringstream ss;
  util::SaveStateFramed(agg, ss);
  std::string frame = ss.str();
  // Flip one payload bit the structural validators would NOT catch (a value
  // byte): the frame CRC must reject it anyway.
  frame[frame.size() - 3] ^= 0x04;
  std::stringstream in(frame);
  core::SlickDequeNonInv<ops::MaxInt> fresh(8);
  EXPECT_EQ(util::LoadStateFramed(&fresh, in),
            util::FrameError::kCrcMismatch);
}

TEST(FramedSerdeTest, LegacyUnframedStreamStillLoads) {
  // A PR 1 checkpoint has no frame: LoadStateFramed must detect the missing
  // magic, rewind, and delegate to the raw LoadState path.
  window::NaiveWindow<ops::SumInt> agg(8);
  for (int64_t i = 0; i < 12; ++i) agg.slide(i);
  std::stringstream legacy;
  agg.SaveState(legacy);  // unframed, exactly as PR 1 wrote it
  window::NaiveWindow<ops::SumInt> fresh(8);
  EXPECT_EQ(util::LoadStateFramed(&fresh, legacy), util::FrameError::kOk);
  EXPECT_EQ(fresh.query(), agg.query());
}

// ---------------------------------------------------------------------------
// Non-POD checkpoint values: AlphaMax aggregates are std::string, so its
// SlickDeque (Non-Inv) checkpoint exercises the length-prefixed WriteVal
// path through both the node ring's CAQ1 frame and the Node pos/value
// pairs.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, AlphaMaxStringStateRoundTrips) {
  using Agg = core::SlickDequeNonInv<ops::AlphaMax>;
  const char* words[] = {"pear",  "apple", "quince", "fig",   "mango",
                         "grape", "kiwi",  "plum",   "peach", "lime"};
  Agg original(5);
  util::SplitMix64 rng(77);
  for (int i = 0; i < 137; ++i) {
    original.slide(std::string(words[rng.NextBounded(10)]));
  }
  std::stringstream ss;
  original.SaveState(ss);
  Agg restored(5);
  ASSERT_TRUE(restored.LoadState(ss));
  EXPECT_EQ(restored.query(), original.query());
  for (int i = 0; i < 200; ++i) {
    const std::string v(words[rng.NextBounded(10)]);
    original.slide(v);
    restored.slide(v);
    ASSERT_EQ(original.query(), restored.query()) << "i=" << i;
  }
}

TEST(SerdeTest, StringValRoundTrip) {
  std::stringstream ss;
  util::WriteVal(ss, std::string("alpha"));
  util::WriteVal(ss, std::string());  // empty string round-trips too
  util::WriteVal(ss, std::string(1000, 'x'));
  std::string a, b, c;
  EXPECT_TRUE(util::ReadVal(ss, &a));
  EXPECT_TRUE(util::ReadVal(ss, &b));
  EXPECT_TRUE(util::ReadVal(ss, &c));
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
  EXPECT_FALSE(util::ReadVal(ss, &a));  // exhausted
}

TEST(SerdeTest, CorruptStringLengthRejected) {
  std::stringstream ss;
  util::WritePod<uint64_t>(ss, UINT64_MAX);  // absurd string length
  std::string s;
  EXPECT_FALSE(util::ReadVal(ss, &s));
}

}  // namespace
}  // namespace slick
