#pragma once

// IEEE CRC-32 (reflected polynomial 0xEDB88320, zlib/PNG/Ethernet
// convention: pre- and post-inverted, `Crc32(b, Crc32(a)) == Crc32(a+b)`)
// in two tiers that return identical values — DESIGN.md §14.2, §16:
//
//  - Table tier (every ISA, force-scalar builds, short inputs and tails):
//    slicing-by-8, eight compile-time 256-entry tables, 8 bytes per step.
//  - Fold tier (x86-64 with PCLMULQDQ, when the shared SIMD level is
//    kAvx2 or above): four 128-bit lanes folded with carry-less
//    multiplies, then reduced to 32 bits with a Barrett reduction (Intel,
//    "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//    2009; the constants are the ones zlib and Linux crc32-pclmul use).
//    It consumes every whole 16-byte block of an input of 64 bytes or
//    more; the table tier finishes the last < 16 bytes.
//
// The tier follows util::ActiveSimdLevel(), so SetSimdLevel(kScalar)
// selects the table tier at run time and -DSLICK_SIMD_FORCE_SCALAR
// compiles the fold out.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/annotations.h"
#include "util/simd_level.h"

namespace slick::util {

namespace detail {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Table k advances the CRC state over one byte followed by k zero bytes,
/// so slicing-by-8 can look up all eight bytes of a word independently.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load; compilers fold it into one mov on LE hosts.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Table tier: advances the raw (inverted) CRC state over n bytes.
SLICK_REALTIME inline uint32_t Crc32Table(uint32_t crc, const unsigned char* p,
                                          std::size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

/// Shortest input the fold tier takes: one load of all four lanes.
inline constexpr std::size_t kCrc32FoldMinBytes = 64;

#if defined(SLICK_SIMD_X86)
inline __m128i Crc32Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `acc` forward by the distance its constants `k` encode, then adds
/// `next`: acc.lo * k.lo ^ acc.hi * k.hi ^ next.
__attribute__((target("pclmul"))) inline __m128i Crc32FoldStep(
    __m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Fold tier: advances the raw CRC state over n bytes, n a multiple of 16
/// and >= kCrc32FoldMinBytes. Bit-reflected constants x^k mod P:
/// k1/k2 fold 512 bits, k3/k4 fold 128 bits, k5 folds 64 to 32 bits, and
/// (P', mu) are the polynomial and its Barrett quotient floor(x^64 / P).
__attribute__((target("pclmul"))) inline uint32_t Crc32Fold(
    uint32_t crc, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(Crc32Load(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Crc32Load(p + 16);
  __m128i x2 = Crc32Load(p + 32);
  __m128i x3 = Crc32Load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Crc32FoldStep(x0, k1k2, Crc32Load(p));
    x1 = Crc32FoldStep(x1, k1k2, Crc32Load(p + 16));
    x2 = Crc32FoldStep(x2, k1k2, Crc32Load(p + 32));
    x3 = Crc32FoldStep(x3, k1k2, Crc32Load(p + 48));
  }
  // Four lanes into one, then any remaining whole 16-byte blocks.
  __m128i x = Crc32FoldStep(x0, k3k4, x1);
  x = Crc32FoldStep(x, k3k4, x2);
  x = Crc32FoldStep(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = Crc32FoldStep(x, k3k4, Crc32Load(p));

  // 128 -> 64 bits, then 64 -> 32 bits (still as a 64-bit remainder).
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett: q = floor(x * mu), remainder = x ^ q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  x = _mm_xor_si128(x, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}
#endif

}  // namespace detail

/// IEEE CRC-32 of `data`, continuing from a previous result `seed`.
SLICK_REALTIME inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  uint32_t crc = ~seed;
#if defined(SLICK_SIMD_X86)
  if (n >= detail::kCrc32FoldMinBytes &&
      ActiveSimdLevel() >= SimdLevel::kAvx2 &&
      __builtin_cpu_supports("pclmul")) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = detail::Crc32Fold(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~detail::Crc32Table(crc, p, n);
}

}  // namespace slick::util
