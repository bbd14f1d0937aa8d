#pragma once

// slick-lint: allow(test-only-module) -- only its own tests use this
// module; its retirement is an open ROADMAP.md item.

#include <cstdint>

namespace slick::ops {

/// (maximum, multiplicity-of-the-maximum) partial.
struct MaxCountPartial {
  double max = 0.0;
  int64_t count = 0;  // 0 encodes the identity (no elements yet)

  friend bool operator==(const MaxCountPartial&,
                         const MaxCountPartial&) = default;
};

/// MaxCount: the window maximum together with how many times it occurs —
/// e.g. "how many sensors are pinned at the ceiling reading". Associative
/// and commutative, but neither invertible (an evicted maximum cannot be
/// rolled back) nor selective (a tie produces a NEW value with a summed
/// count). Like BloomSketch, it exercises the facade's general
/// TwoStacks/DABA fallback path.
struct MaxCount {
  using input_type = double;
  using value_type = MaxCountPartial;
  using result_type = MaxCountPartial;

  static constexpr const char* kName = "max_count";
  static constexpr bool kInvertible = false;
  static constexpr bool kCommutative = true;
  static constexpr bool kSelective = false;

  static value_type identity() { return MaxCountPartial{}; }
  static value_type lift(input_type x) { return MaxCountPartial{x, 1}; }
  static value_type combine(const value_type& a, const value_type& b) {
    if (a.count == 0) return b;
    if (b.count == 0) return a;
    if (a.max < b.max) return b;
    if (b.max < a.max) return a;
    return MaxCountPartial{a.max, a.count + b.count};
  }
  static result_type lower(const value_type& a) { return a; }
};

}  // namespace slick::ops

