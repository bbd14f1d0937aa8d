#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/annotations.h"
#include "util/serde.h"

namespace slick::net {

/// One ingest tuple on the wire: an event timestamp plus the value, raw
/// little-endian host layout (the front door is a loopback/LAN protocol
/// between like machines, matching the checkpoint serde's convention).
/// 16 bytes, no padding — the static_asserts pin the layout so a batch of
/// tuples can be memcpy'd straight out of a verified frame payload.
struct WireTuple {
  uint64_t ts = 0;
  double v = 0.0;
};
static_assert(std::is_trivially_copyable_v<WireTuple>);
static_assert(sizeof(WireTuple) == 16, "wire layout must be 16 bytes");

/// Ingest batch payload tag/version ('SIGB'), nested inside the standard
/// CRC32 frame from util/serde.h ('SLKF'). Full wire format of one frame:
///
///   u32 'SLKF' | u32 frame_version | u64 payload_size | u32 crc32(payload)
///   | payload:  u32 'SIGB' | u32 batch_version | u64 count
///             | count * WireTuple (raw 16-byte records)
///
/// DESIGN.md §14.2 documents the format and its failure taxonomy.
inline constexpr uint32_t kIngestBatchTag = util::MakeTag('S', 'I', 'G', 'B');
inline constexpr uint32_t kIngestBatchVersion = 1;

/// Frame header size: magic + version + payload size + CRC32.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

/// Batch payload header size: tag + version + count.
inline constexpr std::size_t kBatchHeaderBytes = 4 + 4 + 8;

namespace detail {
template <typename T>
  requires std::is_trivially_copyable_v<T>
void StorePod(char* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T LoadPod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
}  // namespace detail

/// Appends one complete frame carrying `n` tuples to `out`. The client's
/// send path and the tests' golden-frame builders share this single
/// encoder, so a decoder bug cannot hide behind a matching encoder bug in
/// only one of them. One pass, in place: `out` grows once, the headers
/// and tuples are written straight into it, and the CRC of the payload
/// just written is patched into the frame header last.
inline void EncodeBatch(const WireTuple* tuples, std::size_t n,
                        std::string* out) {
  const std::size_t payload_bytes = kBatchHeaderBytes + n * sizeof(WireTuple);
  const std::size_t base = out->size();
  out->resize(base + kFrameHeaderBytes + payload_bytes);
  char* frame = out->data() + base;
  char* payload = frame + kFrameHeaderBytes;
  detail::StorePod(frame, util::kFrameMagic);
  detail::StorePod(frame + 4, util::kFrameVersion);
  detail::StorePod(frame + 8, static_cast<uint64_t>(payload_bytes));
  detail::StorePod(payload, kIngestBatchTag);
  detail::StorePod(payload + 4, kIngestBatchVersion);
  detail::StorePod(payload + 8, static_cast<uint64_t>(n));
  if (n > 0) {
    std::memcpy(payload + kBatchHeaderBytes, tuples, n * sizeof(WireTuple));
  }
  detail::StorePod(frame + 16,
                   util::Crc32(std::string_view(payload, payload_bytes)));
}

/// Incremental frame decoder for a TCP byte stream. Feed() buffers raw
/// bytes exactly as recv() produced them — frames may arrive split across
/// any number of reads, or many frames inside one read — and Next() peels
/// off one complete, CRC-verified batch at a time.
///
/// Failure taxonomy (the adversarial serde tests pin this down):
///  - kNeedMore is NOT an error: the buffered prefix is consistent with a
///    valid frame that has not fully arrived yet.
///  - Any hard error (bad magic, unknown version, oversized declared
///    payload, CRC mismatch, malformed batch payload) poisons the decoder:
///    error() holds the typed util::FrameError and every further Next()
///    returns kError. A poisoned stream cannot be resynchronized — the
///    framing carries no resync markers — so the connection must be
///    dropped, which is exactly what IngestServer does.
///  - No failure mode ever yields a partial tuple or reads past the
///    buffer: tuples are only surfaced from a payload whose CRC verified
///    and whose declared count matches its byte length exactly.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     ///< one verified batch was written to *out
    kNeedMore,  ///< no complete frame buffered yet — feed more bytes
    kError,     ///< hard protocol error; see error(). Decoder is poisoned.
  };

  /// `max_frame_bytes` bounds the DECLARED payload size a peer can make
  /// the decoder buffer — the memory-safety guard against a hostile or
  /// corrupt length field (a 2^60 declared size must not become a resize).
  explicit FrameDecoder(std::size_t max_frame_bytes = std::size_t{1} << 20)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw received bytes, first dropping the frames Next() has
  /// consumed since the last Feed — one move of the unread tail per Feed,
  /// not one per frame. Cheap; all parsing happens in Next().
  SLICK_REALTIME_ALLOW(
      "bounded buffering: a caller that runs Next() to kNeedMore before "
      "each Feed holds at most one partial frame (< kFrameHeaderBytes + "
      "max_frame_bytes) plus the appended chunk, and steady-state appends "
      "reuse the capacity the compaction frees")
  void Feed(const char* data, std::size_t len) {
    if (head_ > 0) {
      buf_.erase(0, head_);
      head_ = 0;
    }
    buf_.append(data, len);
  }

  /// Tries to decode one frame into *out (overwriting it). A decoded frame
  /// is consumed by advancing a head offset; Feed() compacts.
  SLICK_NODISCARD SLICK_REALTIME_ALLOW(
      "steady-state decode reuses the caller's vector capacity; growth "
      "is bounded by max_frame_bytes / sizeof(WireTuple)")
  Status Next(std::vector<WireTuple>* out) {
    if (error_ != util::FrameError::kOk) return Status::kError;
    const std::size_t avail = buffered();
    if (avail < kFrameHeaderBytes) return Status::kNeedMore;
    const char* p = buf_.data() + head_;
    if (detail::LoadPod<uint32_t>(p) != util::kFrameMagic) {
      return Poison(util::FrameError::kBadMagic);
    }
    if (detail::LoadPod<uint32_t>(p + 4) != util::kFrameVersion) {
      return Poison(util::FrameError::kBadVersion);
    }
    const uint64_t size = detail::LoadPod<uint64_t>(p + 8);
    if (size > max_frame_bytes_) {
      // Same classification the checkpoint reader gives an absurd size
      // field: the declared length cannot belong to a well-formed stream.
      return Poison(util::FrameError::kTruncated);
    }
    if (avail - kFrameHeaderBytes < size) return Status::kNeedMore;
    const uint32_t crc = detail::LoadPod<uint32_t>(p + 16);
    const std::string_view payload(p + kFrameHeaderBytes,
                                   static_cast<std::size_t>(size));
    if (util::Crc32(payload) != crc) {
      return Poison(util::FrameError::kCrcMismatch);
    }
    if (!DecodePayload(payload, out)) {
      return Poison(util::FrameError::kBadPayload);
    }
    head_ += kFrameHeaderBytes + static_cast<std::size_t>(size);
    return Status::kFrame;
  }

  /// The typed error that poisoned the decoder; kOk while healthy.
  SLICK_NODISCARD util::FrameError error() const { return error_; }

  /// Bytes buffered but not yet consumed by a completed frame.
  std::size_t buffered() const { return buf_.size() - head_; }

 private:
  SLICK_NODISCARD Status Poison(util::FrameError e) {
    error_ = e;
    return Status::kError;
  }

  static bool DecodePayload(std::string_view payload,
                            std::vector<WireTuple>* out) {
    if (payload.size() < kBatchHeaderBytes) return false;
    const char* p = payload.data();
    if (detail::LoadPod<uint32_t>(p) != kIngestBatchTag) return false;
    if (detail::LoadPod<uint32_t>(p + 4) != kIngestBatchVersion) return false;
    const uint64_t count = detail::LoadPod<uint64_t>(p + 8);
    // The declared count must match the payload byte length EXACTLY —
    // trailing garbage and short tuple data are both malformed, so a
    // decoded batch can never contain a partial tuple. Compare by
    // division, never `count * sizeof(WireTuple)`: that multiply wraps
    // mod 2^64, so a crafted count (e.g. 2^60 with a 0-tuple body) would
    // pass the equality and turn the resize below into a length_error
    // thrown on the event-loop thread.
    const std::size_t body = payload.size() - kBatchHeaderBytes;
    if (body % sizeof(WireTuple) != 0 || body / sizeof(WireTuple) != count) {
      return false;
    }
    out->resize(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(out->data(), p + kBatchHeaderBytes,
                  static_cast<std::size_t>(count) * sizeof(WireTuple));
    }
    return true;
  }

  std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t head_ = 0;  ///< start of the unconsumed bytes in buf_
  util::FrameError error_ = util::FrameError::kOk;
};

}  // namespace slick::net
