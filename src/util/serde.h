#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/annotations.h"
#include "util/crc32.h"

namespace slick::util {

// Minimal binary serialization helpers for aggregator checkpoints (DSMS
// fault tolerance: snapshot the window state, restore after a crash, keep
// answering). Little-endian host format, versioned per structure via
// WriteTag/ExpectTag. Trivially copyable payloads are written raw; other
// value types (std::string, structs with SaveValue/LoadValue members) go
// through the WriteVal/ReadVal customization layer below. Checkpoint
// streams as a whole are wrapped in a magic+version+CRC32 frame
// (WriteFramed/ReadFramed) so truncation and bit flips fail with a typed
// FrameError instead of relying on per-algorithm invariant checks.

template <typename T>
  requires std::is_trivially_copyable_v<T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool ReadPod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(is);
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void WritePodVec(std::ostream& os, const std::vector<T>& v) {
  WritePod<uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool ReadPodVec(std::istream& is, std::vector<T>* v) {
  uint64_t count = 0;
  if (!ReadPod(is, &count)) return false;
  // Guard against corrupt counts before allocating.
  if (count > (uint64_t{1} << 40) / sizeof(T)) return false;
  v->resize(count);
  if (count > 0) {
    is.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(count * sizeof(T)));
  }
  return static_cast<bool>(is);
}

/// Structure tag + version header.
inline void WriteTag(std::ostream& os, uint32_t tag, uint32_t version) {
  WritePod(os, tag);
  WritePod(os, version);
}

inline bool ExpectTag(std::istream& is, uint32_t tag, uint32_t version) {
  uint32_t t = 0, v = 0;
  return ReadPod(is, &t) && ReadPod(is, &v) && t == tag && v == version;
}

/// Four-character structure tags.
constexpr uint32_t MakeTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

// ---------------------------------------------------------------------
// Generalized value serde: WriteVal/ReadVal extend the POD helpers to
// std::string (length-prefixed) and to types that provide their own
// SaveValue/LoadValue members — which is what lets string-valued ops
// (AlphaMax) checkpoint through window::SeqRing's CAQ1 frame and
// SlickDequeNonInv.
// Trivially copyable types keep the raw WritePod layout, so every stream
// written by the PR 1 format is byte-identical under WriteVal.
// ---------------------------------------------------------------------

/// A type that serializes itself element-wise (used for non-POD structs
/// like SlickDequeNonInv's (slide index, string) node).
template <typename T>
concept MemberSerde = requires(const T& c, T& m, std::ostream& os,
                               std::istream& is) {
  { c.SaveValue(os) } -> std::same_as<void>;
  { m.LoadValue(is) } -> std::convertible_to<bool>;
};

/// Everything WriteVal/ReadVal can move through a checkpoint stream.
template <typename T>
concept Serializable = std::is_trivially_copyable_v<T> ||
                       std::same_as<T, std::string> || MemberSerde<T>;

template <Serializable T>
void WriteVal(std::ostream& os, const T& v) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    WritePod(os, v);
  } else if constexpr (std::same_as<T, std::string>) {
    WritePod<uint64_t>(os, v.size());
    if (!v.empty()) {
      os.write(v.data(), static_cast<std::streamsize>(v.size()));
    }
  } else {
    v.SaveValue(os);
  }
}

template <Serializable T>
bool ReadVal(std::istream& is, T* v) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    return ReadPod(is, v);
  } else if constexpr (std::same_as<T, std::string>) {
    uint64_t len = 0;
    if (!ReadPod(is, &len)) return false;
    // Guard against corrupt lengths before allocating.
    if (len > (uint64_t{1} << 32)) return false;
    v->resize(static_cast<std::size_t>(len));
    if (len > 0) {
      is.read(v->data(), static_cast<std::streamsize>(len));
    }
    return static_cast<bool>(is);
  } else {
    return v->LoadValue(is);
  }
}

template <Serializable T>
void WriteValVec(std::ostream& os, const std::vector<T>& v) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    WritePodVec(os, v);
  } else {
    WritePod<uint64_t>(os, v.size());
    for (const T& x : v) WriteVal(os, x);
  }
}

template <Serializable T>
bool ReadValVec(std::istream& is, std::vector<T>* v) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    return ReadPodVec(is, v);
  } else {
    uint64_t count = 0;
    if (!ReadPod(is, &count)) return false;
    if (count > (uint64_t{1} << 32)) return false;
    v->clear();
    v->reserve(static_cast<std::size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      T x{};
      if (!ReadVal(is, &x)) return false;
      v->push_back(std::move(x));
    }
    return true;
  }
}

// ---------------------------------------------------------------------
// CRC32-framed checkpoint container (DESIGN.md §12). Frame layout:
//
//   u32 magic 'SLKF' | u32 version | u64 payload_size | u32 crc32(payload)
//   | payload bytes
//
// The payload is whatever the per-structure SaveState wrote (its own
// tag+version streams nest inside, unframed — one frame per checkpoint,
// not one per structure). ReadFramed classifies every failure mode with a
// typed error so callers can distinguish "wrong file" from "torn write"
// from "bit rot". LoadStateFramed additionally accepts the unframed PR 1
// format: a stream whose first word is not the frame magic is handed to
// the structure's own LoadState untouched.
// ---------------------------------------------------------------------

inline constexpr uint32_t kFrameMagic = MakeTag('S', 'L', 'K', 'F');
inline constexpr uint32_t kFrameVersion = 1;

enum class FrameError {
  kOk = 0,
  kBadMagic,     ///< first word is neither the frame magic nor legacy data
  kBadVersion,   ///< framed, but by an unknown frame version
  kTruncated,    ///< stream ended before the declared payload size
  kCrcMismatch,  ///< payload bytes do not match the stored CRC32
  kBadPayload,   ///< frame intact, but the structure rejected the payload
};

inline const char* FrameErrorName(FrameError e) {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kBadMagic: return "bad-magic";
    case FrameError::kBadVersion: return "bad-version";
    case FrameError::kTruncated: return "truncated";
    case FrameError::kCrcMismatch: return "crc-mismatch";
    case FrameError::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

/// Wraps `payload` in the magic+version+size+CRC32 frame.
inline void WriteFramed(std::ostream& os, std::string_view payload) {
  WritePod(os, kFrameMagic);
  WritePod(os, kFrameVersion);
  WritePod<uint64_t>(os, payload.size());
  WritePod<uint32_t>(os, Crc32(payload));
  if (!payload.empty()) {
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
}

/// Reads one frame, placing the verified payload bytes in *payload.
SLICK_NODISCARD inline FrameError ReadFramed(std::istream& is,
                                             std::string* payload) {
  uint32_t magic = 0;
  if (!ReadPod(is, &magic)) return FrameError::kTruncated;
  if (magic != kFrameMagic) return FrameError::kBadMagic;
  uint32_t version = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  if (!ReadPod(is, &version)) return FrameError::kTruncated;
  if (version != kFrameVersion) return FrameError::kBadVersion;
  if (!ReadPod(is, &size) || !ReadPod(is, &crc)) return FrameError::kTruncated;
  // Guard against corrupt sizes before allocating (a flipped bit in the
  // size field must not become a 2^60-byte resize).
  if (size > (uint64_t{1} << 32)) return FrameError::kTruncated;
  payload->resize(static_cast<std::size_t>(size));
  if (size > 0) {
    is.read(payload->data(), static_cast<std::streamsize>(size));
    if (!is) return FrameError::kTruncated;
  }
  if (Crc32(*payload) != crc) return FrameError::kCrcMismatch;
  return FrameError::kOk;
}

/// A structure with the repo's checkpoint protocol (SaveState/LoadState).
template <typename T>
concept Checkpointable = requires(const T& c, T& m, std::ostream& os,
                                  std::istream& is) {
  { c.SaveState(os) } -> std::same_as<void>;
  { m.LoadState(is) } -> std::convertible_to<bool>;
};

/// Checkpoints `obj` inside a CRC32 frame.
template <Checkpointable T>
void SaveStateFramed(const T& obj, std::ostream& os) {
  std::ostringstream payload;
  obj.SaveState(payload);
  WriteFramed(os, payload.str());
}

/// Restores `obj` from a framed checkpoint — or, for compatibility, from an
/// unframed PR 1 stream (detected by the missing magic; the stream is
/// rewound and handed to LoadState verbatim).
template <Checkpointable T>
SLICK_NODISCARD FrameError LoadStateFramed(T* obj, std::istream& is) {
  uint32_t magic = 0;
  if (!ReadPod(is, &magic)) return FrameError::kTruncated;
  if (magic != kFrameMagic) {
    // Legacy unframed stream: rewind the probe and let the structure's own
    // tag check decide. Integrity then rests on its invariant validation.
    is.clear();
    is.seekg(-static_cast<std::streamoff>(sizeof(magic)), std::ios::cur);
    return obj->LoadState(is) ? FrameError::kOk : FrameError::kBadPayload;
  }
  is.clear();
  is.seekg(-static_cast<std::streamoff>(sizeof(magic)), std::ios::cur);
  std::string payload;
  const FrameError err = ReadFramed(is, &payload);
  if (err != FrameError::kOk) return err;
  std::istringstream body(payload);
  return obj->LoadState(body) ? FrameError::kOk : FrameError::kBadPayload;
}

}  // namespace slick::util
