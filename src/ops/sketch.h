#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace slick::ops {

/// A 512-bit Bloom filter partial: the window's "distinct items sketch".
struct BloomPartial {
  std::array<uint64_t, 8> bits = {};

  friend bool operator==(const BloomPartial&, const BloomPartial&) = default;

  /// Approximate distinct count from the fill ratio (standard Bloom
  /// cardinality estimate with k = 2 hash functions).
  double EstimateDistinct() const {
    int set = 0;
    for (uint64_t w : bits) set += std::popcount(w);
    if (set == 0) return 0.0;
    if (set >= 512) return 512.0;  // saturated
    // n ≈ -(m/k) * ln(1 - X/m), m = 512, k = 2.
    const double x = static_cast<double>(set) / 512.0;
    return -(512.0 / 2.0) * std::log(1.0 - x);
  }
};

/// Bloom-union sketch of the window's distinct items (e.g. distinct stock
/// symbols in the last N trades). Associative and commutative but neither
/// invertible (bits cannot be un-set) nor selective (the union is a new
/// value) — the class of operations SlickDeque cannot run and the
/// dispatching facade routes to the general TwoStacks/DABA path, making the
/// paper's query-generality claim concrete with a realistic workload.
struct BloomSketch {
  using input_type = uint64_t;  // item identifier
  using value_type = BloomPartial;
  using result_type = BloomPartial;

  static constexpr const char* kName = "bloom_sketch";
  static constexpr bool kInvertible = false;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return BloomPartial{}; }

  static value_type lift(input_type item) {
    BloomPartial p;
    const uint64_t h1 = Mix(item);
    const uint64_t h2 = Mix(h1 ^ 0x9e3779b97f4a7c15ULL);
    p.bits[(h1 >> 6) & 7] |= uint64_t{1} << (h1 & 63);
    p.bits[(h2 >> 6) & 7] |= uint64_t{1} << (h2 & 63);
    return p;
  }

  static value_type combine(const value_type& a, const value_type& b) {
    BloomPartial p;
    for (int i = 0; i < 8; ++i) p.bits[static_cast<size_t>(i)] =
        a.bits[static_cast<size_t>(i)] | b.bits[static_cast<size_t>(i)];
    return p;
  }

  static result_type lower(const value_type& a) { return a; }

  /// Membership probe against a window sketch (may false-positive, never
  /// false-negative).
  static bool MightContain(const BloomPartial& p, uint64_t item) {
    const uint64_t h1 = Mix(item);
    const uint64_t h2 = Mix(h1 ^ 0x9e3779b97f4a7c15ULL);
    return (p.bits[(h1 >> 6) & 7] & (uint64_t{1} << (h1 & 63))) != 0 &&
           (p.bits[(h2 >> 6) & 7] & (uint64_t{1} << (h2 & 63))) != 0;
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

}  // namespace slick::ops

