#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "util/math.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/simd_level.h"
#include "util/stats.h"

namespace slick::util {
namespace {

TEST(MathTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1ULL << 40));
  EXPECT_FALSE(IsPowerOfTwo((1ULL << 40) + 1));
}

TEST(MathTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(MathTest, FloorCeilLog2) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(4), 2u);
  EXPECT_EQ(FloorLog2(1023), 9u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(MathTest, LcmAll) {
  const uint64_t a[] = {2, 3, 4};
  EXPECT_EQ(LcmAll(a, 3), 12u);
  const uint64_t b[] = {7};
  EXPECT_EQ(LcmAll(b, 1), 7u);
  const uint64_t c[] = {6, 10, 15};
  EXPECT_EQ(LcmAll(c, 3), 30u);
}

TEST(RngTest, DeterministicAndSpread) {
  SplitMix64 rng1(42);
  SplitMix64 rng2(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng1.NextU64(), rng2.NextU64());

  SplitMix64 rng(7);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(RngTest, BoundedStaysInBound) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(StatsTest, PercentileSorted) {
  std::vector<uint64_t> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0.25), 20.0);
  std::vector<uint64_t> one = {7};
  EXPECT_DOUBLE_EQ(PercentileSorted(one, 0.9), 7.0);
}

TEST(StatsTest, SummarizeBasic) {
  std::vector<uint64_t> v = {5, 1, 3, 2, 4};
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min_ns, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ns, 5.0);
  EXPECT_DOUBLE_EQ(s.median_ns, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_ns, 3.0);
}

TEST(StatsTest, SummarizeDropsTopOutliers) {
  std::vector<uint64_t> v(1000, 10);
  v.push_back(1000000);  // one outlier among 1001 samples
  const LatencySummary s = Summarize(v, 0.001);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.max_ns, 10.0);
}

TEST(StatsTest, SummarizeEmpty) {
  std::vector<uint64_t> v;
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 0u);
  // Every field of an empty summary is zero — no NaNs, no stale values.
  EXPECT_DOUBLE_EQ(s.min_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.p25_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.median_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.p75_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.p999_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.max_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_ns, 0.0);
}

TEST(StatsTest, SummarizeEmptyWithDropFraction) {
  // drop_top on an empty input must not underflow the kept-count.
  std::vector<uint64_t> v;
  const LatencySummary s = Summarize(v, 0.5);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max_ns, 0.0);
}

TEST(StatsTest, SummarizeSingleSample) {
  // Regression: a single sample is every percentile, and the summary's
  // count is 1 — it must not report zeros or divide by zero.
  std::vector<uint64_t> v = {37};
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.p25_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.median_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.p75_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.p99_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.p999_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.max_ns, 37.0);
  EXPECT_DOUBLE_EQ(s.avg_ns, 37.0);
}

TEST(StatsTest, SummarizeSingleSampleNeverDroppedAsOutlier) {
  // Regression: even an aggressive drop fraction keeps the last sample —
  // the outlier trim must never empty a nonempty input.
  std::vector<uint64_t> v = {99};
  const LatencySummary s = Summarize(v, 0.9);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min_ns, 99.0);
  EXPECT_DOUBLE_EQ(s.max_ns, 99.0);
}

TEST(StatsTest, RecorderRoundTrip) {
  LatencyRecorder rec(8);
  for (uint64_t x : {4u, 8u, 2u}) rec.Record(x);
  const LatencySummary s = rec.Finish();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min_ns, 2.0);
  EXPECT_TRUE(rec.samples().empty());
}

// ---------------------------------------------------------------------
// Adversarial frame decoding (DESIGN.md §14.2). The contract under test:
// every malformed input yields a typed util::FrameError — never a crash,
// never a partial tuple — and an incomplete-but-consistent prefix is
// kNeedMore, not an error. Covers both the stream-level ReadFramed used
// by checkpoints and the incremental net::FrameDecoder used by the TCP
// front door (same frame layout, same taxonomy).
// ---------------------------------------------------------------------

namespace {

std::vector<net::WireTuple> TestTuples(std::size_t n) {
  std::vector<net::WireTuple> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {i + 1, static_cast<double>(i) * 0.5};
  }
  return v;
}

std::string GoldenFrame(std::size_t n) {
  const std::vector<net::WireTuple> tuples = TestTuples(n);
  std::string out;
  net::EncodeBatch(tuples.data(), tuples.size(), &out);
  return out;
}

/// Wraps an arbitrary payload in a correctly-CRC'd frame, so payload-level
/// corruption can be tested without tripping the CRC check first.
std::string FrameOver(const std::string& payload) {
  std::ostringstream os;
  WriteFramed(os, payload);
  return os.str();
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

}  // namespace

// Golden bytes, recorded from the byte-at-a-time CRC the wire and
// checkpoint formats were defined with: any CRC tier must reproduce them
// exactly, or old peers and old checkpoints stop verifying.
TEST(SerdeFrameTest, EncodeBatchBytesArePinned) {
  EXPECT_EQ(Hex(GoldenFrame(3)),
            "534c4b46" "01000000" "4000000000000000" "0fe1fb96"
            "53494742" "01000000" "0300000000000000"
            "0100000000000000" "0000000000000000"
            "0200000000000000" "000000000000e03f"
            "0300000000000000" "000000000000f03f");
}

TEST(SerdeFrameTest, WriteFramedBytesArePinned) {
  std::ostringstream os;
  WriteFramed(os, "hello checkpoint");
  EXPECT_EQ(Hex(os.str()),
            "534c4b46" "01000000" "1000000000000000" "323ce1d5"
            "68656c6c6f20636865636b706f696e74");
}

TEST(SerdeFrameTest, ReadFramedRoundTrip) {
  std::ostringstream os;
  WriteFramed(os, "hello checkpoint");
  std::istringstream is(os.str());
  std::string payload;
  EXPECT_EQ(ReadFramed(is, &payload), FrameError::kOk);
  EXPECT_EQ(payload, "hello checkpoint");
}

TEST(SerdeFrameTest, ReadFramedTruncatedAtEveryPrefix) {
  std::ostringstream os;
  WriteFramed(os, "some payload bytes");
  const std::string full = os.str();
  // Every strict prefix of a valid frame is a torn write: always the
  // typed kTruncated, never a crash or a bogus payload.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream is(full.substr(0, cut));
    std::string payload;
    EXPECT_EQ(ReadFramed(is, &payload), FrameError::kTruncated)
        << "prefix length " << cut;
  }
}

TEST(SerdeFrameTest, ReadFramedClassifiesHeaderCorruption) {
  std::ostringstream os;
  WriteFramed(os, "payload");
  const std::string full = os.str();

  std::string bad_magic = full;
  bad_magic[0] ^= 0x01;
  std::istringstream is1(bad_magic);
  std::string p;
  EXPECT_EQ(ReadFramed(is1, &p), FrameError::kBadMagic);

  std::string bad_version = full;
  bad_version[4] ^= 0x01;
  std::istringstream is2(bad_version);
  EXPECT_EQ(ReadFramed(is2, &p), FrameError::kBadVersion);

  std::string bad_crc = full;
  bad_crc[net::kFrameHeaderBytes] ^= 0x01;  // first payload byte
  std::istringstream is3(bad_crc);
  EXPECT_EQ(ReadFramed(is3, &p), FrameError::kCrcMismatch);
}

TEST(FrameDecoderTest, SplitAtEveryBoundaryIsNeedMoreThenFrame) {
  const std::string frame = GoldenFrame(3);
  const std::vector<net::WireTuple> want = TestTuples(3);
  // Feed the frame in two chunks, cut at every byte boundary: the prefix
  // must always be kNeedMore (it is consistent with a frame in flight),
  // and the remainder must complete it to exactly the encoded batch.
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    net::FrameDecoder dec;
    std::vector<net::WireTuple> out;
    dec.Feed(frame.data(), cut);
    if (cut < frame.size()) {
      ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kNeedMore)
          << "cut " << cut;
      dec.Feed(frame.data() + cut, frame.size() - cut);
    }
    ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame)
        << "cut " << cut;
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out[i].ts, want[i].ts);
      EXPECT_DOUBLE_EQ(out[i].v, want[i].v);
    }
    EXPECT_EQ(dec.error(), FrameError::kOk);
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(FrameDecoderTest, ByteAtATimeFeedReassemblesManyFrames) {
  std::string stream = GoldenFrame(2);
  stream += GoldenFrame(5);
  stream += GoldenFrame(0);  // an empty batch is a legal frame
  net::FrameDecoder dec;
  std::vector<std::size_t> batch_sizes;
  std::vector<net::WireTuple> out;
  for (char c : stream) {
    dec.Feed(&c, 1);
    while (dec.Next(&out) == net::FrameDecoder::Status::kFrame) {
      batch_sizes.push_back(out.size());
    }
    ASSERT_EQ(dec.error(), FrameError::kOk);
  }
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2, 5, 0}));
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, BadMagicMidStreamPoisonsAfterTheGoodFrame) {
  std::string stream = GoldenFrame(2);
  stream += "XXXXGARBAGE-NOT-A-FRAME-HEADER";  // > header size, wrong magic
  net::FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  std::vector<net::WireTuple> out;
  // The complete frame ahead of the garbage still decodes...
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.size(), 2u);
  // ...then the stream poisons with the typed error, and stays poisoned
  // even if well-formed bytes arrive afterwards (no resync markers).
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError);
  EXPECT_EQ(dec.error(), FrameError::kBadMagic);
  const std::string good = GoldenFrame(1);
  dec.Feed(good.data(), good.size());
  EXPECT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError);
  EXPECT_EQ(dec.error(), FrameError::kBadMagic);
}

TEST(FrameDecoderTest, UnknownFrameVersionIsTyped) {
  std::string frame = GoldenFrame(1);
  frame[4] ^= 0x02;  // version word
  net::FrameDecoder dec;
  dec.Feed(frame.data(), frame.size());
  std::vector<net::WireTuple> out;
  EXPECT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError);
  EXPECT_EQ(dec.error(), FrameError::kBadVersion);
}

TEST(FrameDecoderTest, OversizeDeclaredPayloadRejectedBeforeBuffering) {
  // A hostile length field must fail from the header alone — the decoder
  // must not wait for (or try to allocate) the declared 2^40 bytes.
  std::string header;
  header.append(reinterpret_cast<const char*>(&kFrameMagic), 4);
  header.append(reinterpret_cast<const char*>(&kFrameVersion), 4);
  const uint64_t absurd = uint64_t{1} << 40;
  header.append(reinterpret_cast<const char*>(&absurd), 8);
  const uint32_t crc = 0;
  header.append(reinterpret_cast<const char*>(&crc), 4);
  net::FrameDecoder dec(/*max_frame_bytes=*/1 << 16);
  dec.Feed(header.data(), header.size());
  std::vector<net::WireTuple> out;
  EXPECT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError);
  EXPECT_EQ(dec.error(), FrameError::kTruncated);
}

TEST(FrameDecoderTest, CrcCorruptionFuzzNeverYieldsTuples) {
  // Flip one random payload bit per round: the CRC must catch every one,
  // and no round may surface tuples from the corrupt frame.
  SplitMix64 rng(0x5eedu);
  const std::string golden = GoldenFrame(8);
  const std::size_t payload_len = golden.size() - net::kFrameHeaderBytes;
  for (int round = 0; round < 200; ++round) {
    std::string frame = golden;
    const std::size_t byte =
        net::kFrameHeaderBytes + rng.NextBounded(payload_len);
    frame[byte] ^= static_cast<char>(1u << rng.NextBounded(8));
    net::FrameDecoder dec;
    dec.Feed(frame.data(), frame.size());
    std::vector<net::WireTuple> out;
    ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError)
        << "round " << round << " byte " << byte;
    ASSERT_EQ(dec.error(), FrameError::kCrcMismatch);
  }
}

TEST(FrameDecoderTest, MalformedBatchPayloadIsBadPayload) {
  // CRC-valid frames whose batch payload is malformed: wrong inner tag,
  // wrong batch version, count disagreeing with the byte length (both
  // directions), and a payload shorter than the batch header. All must
  // classify as kBadPayload — a verified CRC is not a verified batch.
  const std::vector<net::WireTuple> tuples = TestTuples(2);
  std::string base;
  base.append(reinterpret_cast<const char*>(&net::kIngestBatchTag), 4);
  base.append(reinterpret_cast<const char*>(&net::kIngestBatchVersion), 4);
  const uint64_t count = tuples.size();
  base.append(reinterpret_cast<const char*>(&count), 8);
  base.append(reinterpret_cast<const char*>(tuples.data()),
              tuples.size() * sizeof(net::WireTuple));

  std::string wrong_tag = base;
  wrong_tag[0] ^= 0x01;
  std::string wrong_version = base;
  wrong_version[4] ^= 0x01;
  std::string trailing_garbage = base + "extra";
  std::string short_data = base.substr(0, base.size() - 1);
  std::string tiny = base.substr(0, net::kBatchHeaderBytes - 1);

  for (const std::string& payload :
       {wrong_tag, wrong_version, trailing_garbage, short_data, tiny}) {
    const std::string frame = FrameOver(payload);
    net::FrameDecoder dec;
    dec.Feed(frame.data(), frame.size());
    std::vector<net::WireTuple> out;
    ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError);
    EXPECT_EQ(dec.error(), FrameError::kBadPayload);
  }

  // Sanity: the uncorrupted base payload decodes.
  const std::string frame = FrameOver(base);
  net::FrameDecoder dec;
  dec.Feed(frame.data(), frame.size());
  std::vector<net::WireTuple> out;
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.size(), 2u);
}

TEST(FrameDecoderTest, OverflowingDeclaredCountIsBadPayloadNotLengthError) {
  // A count field chosen so `count * sizeof(WireTuple)` wraps mod 2^64 to
  // the actual body length: the length-match check must be computed
  // without the multiply, or the CRC-valid frame passes validation and
  // the resize throws std::length_error through the event loop. count =
  // 2^60 wraps to 0 (empty body); 2^60 + k wraps to k tuples of body.
  const std::vector<net::WireTuple> tuples = TestTuples(2);
  for (const uint64_t wrapping_count :
       {uint64_t{1} << 60, (uint64_t{1} << 60) + 2, (uint64_t{1} << 62) + 2}) {
    std::string payload;
    payload.append(reinterpret_cast<const char*>(&net::kIngestBatchTag), 4);
    payload.append(reinterpret_cast<const char*>(&net::kIngestBatchVersion),
                   4);
    payload.append(reinterpret_cast<const char*>(&wrapping_count), 8);
    const std::size_t body =
        static_cast<std::size_t>(wrapping_count * sizeof(net::WireTuple));
    payload.append(reinterpret_cast<const char*>(tuples.data()), body);
    const std::string frame = FrameOver(payload);
    net::FrameDecoder dec;
    dec.Feed(frame.data(), frame.size());
    std::vector<net::WireTuple> out;
    ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kError)
        << "count " << wrapping_count;
    EXPECT_EQ(dec.error(), FrameError::kBadPayload);
    EXPECT_TRUE(out.empty());
  }
}

TEST(FrameDecoderTest, BufferedAccountsForTheUnconsumedTail) {
  const std::string first = GoldenFrame(3);
  const std::string second = GoldenFrame(1);
  net::FrameDecoder dec;
  dec.Feed(first.data(), first.size());
  dec.Feed(second.data(), second.size() / 2);  // half of the next frame
  std::vector<net::WireTuple> out;
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(dec.buffered(), second.size() / 2);
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kNeedMore);
  dec.Feed(second.data() + second.size() / 2,
           second.size() - second.size() / 2);
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, ManyFramesInOneFeedConsumeInPlace) {
  // 1000 frames arrive in one Feed. Each Next consumes exactly one frame
  // from the front, so buffered() falls by one frame per call and the
  // decoder never shifts the unread tail while it walks the batch.
  const std::string frame = GoldenFrame(4);
  std::string stream;
  for (int i = 0; i < 1000; ++i) stream += frame;
  net::FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  std::vector<net::WireTuple> out;
  for (std::size_t i = 1; i <= 1000; ++i) {
    ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame) << i;
    ASSERT_EQ(out.size(), 4u);
    ASSERT_EQ(dec.buffered(), stream.size() - i * frame.size()) << i;
  }
  EXPECT_EQ(dec.Next(&out), net::FrameDecoder::Status::kNeedMore);
  // The consumed prefix is dropped on the next Feed; decoding resumes.
  dec.Feed(frame.data(), frame.size() / 2);
  EXPECT_EQ(dec.buffered(), frame.size() / 2);
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kNeedMore);
  dec.Feed(frame.data() + frame.size() / 2, frame.size() - frame.size() / 2);
  ASSERT_EQ(dec.Next(&out), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---------------------------------------------------------------------
// CRC32 tiers (util/crc32.h): the slicing-by-8 table tier and, where the
// host has it, the PCLMULQDQ fold tier must both equal the byte-at-a-time
// definition for every length, start offset and seed. The fold tier runs
// at kAvx2 and above; kScalar pins the table tier.
// ---------------------------------------------------------------------

namespace {

uint32_t ReferenceCrc32(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::string RandomBytes(SplitMix64& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.NextU64());
  return s;
}

/// Runs `body` once per distinct CRC tier this host can execute.
template <typename Body>
void AtEveryCrcTier(Body body) {
  const SimdLevel saved = ActiveSimdLevel();
  for (const SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
    SetSimdLevel(level);
    SCOPED_TRACE(SimdLevelName(level));
    body();
  }
  SetSimdLevel(saved);
}

}  // namespace

TEST(Crc32Test, EveryTierMatchesByteAtATimeReference) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kOffsets = 16;
  SplitMix64 rng(0xC3C32u);
  const std::string buf = RandomBytes(rng, kMaxLen + kOffsets);
  struct Case {
    std::string_view data;
    uint32_t seed;
    uint32_t want;
  };
  std::vector<Case> cases;
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    for (std::size_t off = 0; off < kOffsets; ++off) {
      const std::string_view data(buf.data() + off, len);
      // Offset 0 keeps the plain seed-0 CRC; the rest chain from a
      // random previous result.
      const auto seed = off == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
      cases.push_back({data, seed, ReferenceCrc32(data, seed)});
    }
  }
  AtEveryCrcTier([&] {
    for (const Case& c : cases) {
      ASSERT_EQ(Crc32(c.data, c.seed), c.want)
          << "len " << c.data.size() << " offset " << c.data.data() - buf.data()
          << " seed " << c.seed;
    }
  });
}

TEST(Crc32Test, ChainingEqualsCrcOfTheConcatenation) {
  SplitMix64 rng(0xC4A1u);
  AtEveryCrcTier([&] {
    for (int round = 0; round < 500; ++round) {
      const std::string a = RandomBytes(rng, rng.NextBounded(300));
      const std::string b = RandomBytes(rng, rng.NextBounded(300));
      ASSERT_EQ(Crc32(b, Crc32(a)), Crc32(a + b))
          << "|a| " << a.size() << " |b| " << b.size();
    }
  });
}

TEST(MemoryTest, RssReadable) {
  // Smoke check: on Linux both values should be nonzero and peak >= current.
  const uint64_t peak = PeakRssBytes();
  const uint64_t cur = CurrentRssBytes();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(cur, 0u);
  EXPECT_GE(peak, cur / 2);  // loose: RSS can shrink below the peak
}

}  // namespace
}  // namespace slick::util
