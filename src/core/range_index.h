#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/math.h"

namespace slick::core {

/// The registered-range index of both SlickDeques: an open-addressing
/// table from a registered range to its entry in the owner's vector of
/// per-range entries (SlickDeque (Inv)'s answers, SlickDeque (Non-Inv)'s
/// answer cursors; any element with a `range` member). It has 2^b slots,
/// the least power of two >= twice the entry count (so every probe run
/// ends at an empty slot), a multiplicative (Fibonacci) hash — the top b
/// bits of range * 2^64/φ — and linear probing. A slot is a 4-byte
/// position, so the table costs 8 to 16 bytes per range, 8 bytes in all
/// for a single range. Copies are deep, so owners stay copyable. A
/// default-constructed index has no table and must not be probed.
class RangeIndex {
 public:
  RangeIndex() = default;

  template <typename Entry>
  explicit RangeIndex(const std::vector<Entry>& entries)
      : shift_(64 - util::CeilLog2(2 * entries.size())),
        slots_(std::make_unique<uint32_t[]>(size())) {
    SLICK_CHECK(entries.size() < kEmpty, "too many registered ranges");
    std::fill_n(slots_.get(), size(), kEmpty);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::size_t s = Home(entries[i].range);
      while (slots_[s] != kEmpty) s = Next(s);
      slots_[s] = static_cast<uint32_t>(i);
    }
  }

  RangeIndex(const RangeIndex& other)
      : shift_(other.shift_),
        slots_(other.slots_ ? std::make_unique<uint32_t[]>(other.size())
                            : nullptr) {
    if (slots_) std::copy_n(other.slots_.get(), size(), slots_.get());
  }
  RangeIndex& operator=(const RangeIndex& other) {
    return *this = RangeIndex(other);
  }
  RangeIndex(RangeIndex&&) noexcept = default;
  RangeIndex& operator=(RangeIndex&&) noexcept = default;

  /// The entry of `entries` (the vector the index was built from) whose
  /// range is `range`, or nullptr.
  template <typename Vec>
  auto* Find(Vec& entries, std::size_t range) const {
    for (std::size_t s = Home(range);; s = Next(s)) {
      const uint32_t i = slots_[s];
      if (i == kEmpty) return static_cast<decltype(entries.data())>(nullptr);
      if (entries[i].range == range) return &entries[i];
    }
  }

  std::size_t bytes() const { return slots_ ? size() * sizeof(uint32_t) : 0; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;

  std::size_t size() const { return std::size_t{1} << (64 - shift_); }
  std::size_t Home(std::size_t range) const {
    return static_cast<std::size_t>((uint64_t{range} * kFibonacci) >> shift_);
  }
  std::size_t Next(std::size_t s) const { return (s + 1) & (size() - 1); }

  uint32_t shift_ = 63;  // 64 - b
  std::unique_ptr<uint32_t[]> slots_;
};

}  // namespace slick::core
