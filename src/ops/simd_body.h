// The one body of every wide kernel (DESIGN.md §16.1): the add fold behind
// ops/kernels.h and the suffix/prefix scans, survivor masks and
// SubtractArrays behind ops/scan_kernels.h, each written once over
// GCC/Clang vector extensions.
//
// ops/simd_dispatch.h includes this file once per target, inside that
// target's `#pragma GCC target` region and with SLICK_SIMD_TARGET naming
// the target's namespace (avx2, avx512, neon). That namespace first
// declares the lane traits the body is written against:
//
//   kLanes          64-bit lanes per vector (2, 4 or 8);
//   LessBits(a, b)  bit j set iff a[j] < b[j] (false on NaN);
//   Align<S>(hi, lo), only with SLICK_SIMD_NATIVE_ALIGN (see below).
//
// Everything else (loads, stores, lane shifts, broadcasts, selects) is
// plain vector-extension code the compiler lowers for the region's ISA.
// Helpers and entry points all live inside the region, so every
// instantiation carries the target's ISA and no vector crosses a
// baseline-ISA call boundary. Without SLICK_SIMD_TARGET the file is empty.

// slick-lint: allow(pragma-once) -- re-included once per SIMD target.
#if defined(SLICK_SIMD_TARGET)

namespace slick::ops::kernels::SLICK_SIMD_TARGET {

template <typename T>
struct VecOf {
  typedef T type __attribute__((vector_size(sizeof(T) * kLanes)));
};
template <typename T>
using Vec = typename VecOf<T>::type;

template <typename T>
SLICK_REALTIME inline Vec<T> Load(const T* p) {
  Vec<T> x{};
  __builtin_memcpy(&x, p, sizeof x);
  return x;
}

template <typename T>
SLICK_REALTIME inline void Store(T* p, Vec<T> x) {
  __builtin_memcpy(p, &x, sizeof x);
}

// ForLanes hands `f` the lane pack I = 0..kLanes-1. Align<S>(hi, lo) is
// lanes S..S+kLanes-1 of the two-vector concatenation lo:hi; a target
// with a native two-register align (AVX-512's valignq) supplies its own
// and defines SLICK_SIMD_NATIVE_ALIGN. Lane j of Down<K> is x[j+K], fill
// past the top: the suffix scans' shift toward lane 0. Lane j of Up<K> is
// x[j-K], fill below lane K: the prefix scans' shift. Broadcast<L> copies
// lane L to every lane.
template <typename F>
SLICK_REALTIME inline auto ForLanes(F f) {
  return f(std::make_index_sequence<kLanes>{});
}
template <typename T>
SLICK_REALTIME inline Vec<T> Splat(T s) {
  return ForLanes([s]<std::size_t... I>(std::index_sequence<I...>) {
    return Vec<T>{((void)I, s)...};
  });
}
#if !defined(SLICK_SIMD_NATIVE_ALIGN)
template <std::size_t S, typename V>
SLICK_REALTIME inline V Align(V hi, V lo) {
  return ForLanes([hi, lo]<std::size_t... I>(std::index_sequence<I...>) {
    return __builtin_shufflevector(lo, hi, (S + I)...);
  });
}
#endif
template <std::size_t K, typename V>
SLICK_REALTIME inline V Down(V x, V fill) {
  return Align<K>(fill, x);
}
template <std::size_t K, typename V>
SLICK_REALTIME inline V Up(V x, V fill) {
  return Align<kLanes - K>(x, fill);
}
template <std::size_t L, typename V>
SLICK_REALTIME inline V Broadcast(V x) {
  return ForLanes([x]<std::size_t... I>(std::index_sequence<I...>) {
    return __builtin_shufflevector(x, x, (I * 0 + L)...);
  });
}

// The three combines, each spelled exactly as the op's scalar combine()
// so one expression serves scalar tails and vector lanes alike. For
// vectors `a < b ? b : a` is a lane select, which the compiler lowers to
// maxpd/minpd (second operand on unordered), a compare + blend, or a
// native 64-bit max. Dominates(x, c) is the survivor test: c does not
// absorb x, the aggregate of everything after it (a NaN x survives).
// DominatesBits is its lane form, one bit per lane through the target's
// LessBits, exact on NaN-free lanes.
struct LaneAdd {
  template <typename T>
  static constexpr T Identity() { return T{0}; }
  template <typename X>
  SLICK_REALTIME static X Apply(X a, X b) { return a + b; }
};
struct LaneMax {
  template <typename T>
  static constexpr T Identity() {
    return std::numeric_limits<T>::has_infinity
               ? -std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::lowest();
  }
  template <typename X>
  SLICK_REALTIME static X Apply(X a, X b) { return a < b ? b : a; }
  template <typename X>
  SLICK_REALTIME static bool Dominates(X x, X c) { return !(x <= c); }
  template <typename V>
  SLICK_REALTIME static unsigned DominatesBits(V x, V c) {
    return LessBits(c, x);
  }
};
struct LaneMin {
  template <typename T>
  static constexpr T Identity() {
    return std::numeric_limits<T>::has_infinity
               ? std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::max();
  }
  template <typename X>
  SLICK_REALTIME static X Apply(X a, X b) { return b < a ? b : a; }
  template <typename X>
  SLICK_REALTIME static bool Dominates(X x, X c) { return !(c <= x); }
  template <typename V>
  SLICK_REALTIME static unsigned DominatesBits(V x, V c) {
    return LessBits(x, c);
  }
};

// In-register log-step scans of one block: after the step for K, lane j
// holds the aggregate of lanes j..j+2K-1 (suffix) or j-2K+1..j (prefix),
// always combined in sequence order.
template <typename Op, std::size_t K = 1, typename V>
SLICK_REALTIME inline V SuffixInBlock(V x, V fill) {
  if constexpr (K < kLanes) {
    return SuffixInBlock<Op, 2 * K>(Op::Apply(x, Down<K>(x, fill)), fill);
  } else {
    return x;
  }
}
template <typename Op, std::size_t K = 1, typename V>
SLICK_REALTIME inline V PrefixInBlock(V x, V fill) {
  if constexpr (K < kLanes) {
    return PrefixInBlock<Op, 2 * K>(Op::Apply(Up<K>(x, fill), x), fill);
  } else {
    return x;
  }
}

// Horizontal reduction, the same tree at every width: lane j ⊕= lane j+K
// for K = kLanes/2, ..., 1, so 8 lanes sum as
// ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)).
template <typename Op, std::size_t K = kLanes / 2, typename V>
SLICK_REALTIME inline V Reduce(V x) {
  if constexpr (K >= 1) {
    return Reduce<Op, K / 2>(Op::Apply(x, Down<K>(x, x)));
  } else {
    return x;
  }
}

// Identity-seeded fold: kLanes interleaved accumulators, one reduction,
// then a sequential tail.
template <typename Op, typename T>
SLICK_REALTIME inline T Fold(const T* SLICK_RESTRICT v, std::size_t n) {
  const std::size_t blocked = n - n % kLanes;
  Vec<T> acc = Splat(Op::template Identity<T>());
  for (std::size_t i = 0; i < blocked; i += kLanes) {
    acc = Op::Apply(acc, Load(v + i));
  }
  T r = Reduce<Op>(acc)[0];
  for (std::size_t i = blocked; i < n; ++i) r = Op::Apply(r, v[i]);
  return r;
}

// out[i] = v[i] ⊕ out[i+1], seeded with `carry`. The unaligned top is
// peeled scalar; then each block is scanned in register, combined with
// the carried aggregate of everything above it, and only a lane-0
// broadcast + combine stays on the block-to-block critical path.
template <typename Op, typename T>
SLICK_REALTIME inline void SuffixScan(const T* v, T* out, std::size_t n,
                                      T carry) {
  const Vec<T> fill = Splat(Op::template Identity<T>());
  std::size_t i = n;
  while (i % kLanes != 0) {
    --i;
    carry = Op::Apply(v[i], carry);
    out[i] = carry;
  }
  Vec<T> c = Splat(carry);
  for (; i != 0; i -= kLanes) {
    const Vec<T> x = SuffixInBlock<Op>(Load(v + i - kLanes), fill);
    Store(out + i - kLanes, Op::Apply(x, c));
    c = Op::Apply(Broadcast<0>(x), c);
  }
}

// out[i] = out[i-1] ⊕ v[i], seeded with `carry`; blocks first, scalar tail.
template <typename Op, typename T>
SLICK_REALTIME inline void PrefixScan(const T* v, T* out, std::size_t n,
                                      T carry) {
  const Vec<T> fill = Splat(Op::template Identity<T>());
  Vec<T> c = Splat(carry);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const Vec<T> x = PrefixInBlock<Op>(Load(v + i), fill);
    Store(out + i, Op::Apply(c, x));
    c = Op::Apply(c, Broadcast<kLanes - 1>(x));
  }
  carry = c[0];
  for (; i < n; ++i) {
    carry = Op::Apply(carry, v[i]);
    out[i] = carry;
  }
}

// One scalar staircase step at index i: the survivor test against the
// suffix carry and the carry update (carry = v[i] ⊕ carry).
template <typename Op, typename T>
SLICK_REALTIME inline void SurvivorStep(const T* v, std::size_t i, T& carry,
                                        uint64_t* mask) {
  if (Op::Dominates(v[i], carry)) mask[i >> 6] |= uint64_t{1} << (i & 63);
  carry = Op::Apply(v[i], carry);
}

// Staircase survivor mask: the in-block exclusive suffix is the inclusive
// one shifted down a lane and combined with the carry, so one packed
// compare yields kLanes survivor bits. kLanes divides 64 and blocks start
// at multiples of kLanes, so a block's bits never straddle mask words.
// A NaN breaks the order that regrouping relies on, so floating blocks
// also collect their unordered lanes, and a batch that held a NaN (in a
// block or in the carry out of the scalar top) is redone with the scalar
// steps. NaN-free batches pay one compare and one OR per block; a
// per-block branch to the scalar steps cost them ~30% (AVX2 and AVX-512,
// 4-vCPU Xeon VM, GCC 12).
template <typename Op, typename T>
SLICK_REALTIME inline T Survivors(const T* v, std::size_t n, uint64_t* mask) {
  const Vec<T> fill = Splat(Op::template Identity<T>());
  T carry = Op::template Identity<T>();
  std::size_t i = n;
  while (i % kLanes != 0) SurvivorStep<Op>(v, --i, carry, mask);
  Vec<T> c = Splat(carry);
  [[maybe_unused]] auto unordered = c != c;  // NaN lanes seen (floating T)
  for (; i != 0; i -= kLanes) {
    const std::size_t b = i - kLanes;
    const Vec<T> x = Load(v + b);
    if constexpr (std::is_floating_point_v<T>) unordered |= x != x;
    const Vec<T> incl = SuffixInBlock<Op>(x, fill);
    const Vec<T> excl = Op::Apply(Down<1>(incl, fill), c);
    mask[b >> 6] |= uint64_t{Op::DominatesBits(x, excl)} << (b & 63);
    c = Op::Apply(Broadcast<0>(incl), c);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (LessBits(unordered, decltype(unordered){}) != 0) {
      for (std::size_t w = 0; w < (n + 63) / 64; ++w) mask[w] = 0;
      carry = Op::template Identity<T>();
      for (i = n; i-- > 0;) SurvivorStep<Op>(v, i, carry, mask);
      return carry;
    }
  }
  return c[0];
}

// Entry points named as the dispatchers in ops/kernels.h and
// ops/scan_kernels.h call them (SLICK_SIMD_DISPATCH_BODY).

template <typename T>
SLICK_REALTIME inline T FoldAdd(const T* SLICK_RESTRICT v, std::size_t n) {
  return Fold<LaneAdd>(v, n);
}

template <typename T>
SLICK_REALTIME inline void SuffixAdd(const T* v, T* out, std::size_t n,
                                     T carry) {
  SuffixScan<LaneAdd>(v, out, n, carry);
}
template <typename T>
SLICK_REALTIME inline void SuffixMax(const T* v, T* out, std::size_t n,
                                     T carry) {
  SuffixScan<LaneMax>(v, out, n, carry);
}
template <typename T>
SLICK_REALTIME inline void SuffixMin(const T* v, T* out, std::size_t n,
                                     T carry) {
  SuffixScan<LaneMin>(v, out, n, carry);
}
template <typename T>
SLICK_REALTIME inline void PrefixAdd(const T* v, T* out, std::size_t n,
                                     T carry) {
  PrefixScan<LaneAdd>(v, out, n, carry);
}
template <typename T>
SLICK_REALTIME inline void PrefixMax(const T* v, T* out, std::size_t n,
                                     T carry) {
  PrefixScan<LaneMax>(v, out, n, carry);
}
template <typename T>
SLICK_REALTIME inline void PrefixMin(const T* v, T* out, std::size_t n,
                                     T carry) {
  PrefixScan<LaneMin>(v, out, n, carry);
}

template <typename T>
SLICK_REALTIME inline T MaxSurvivors(const T* v, std::size_t n,
                                     uint64_t* mask) {
  return Survivors<LaneMax>(v, n, mask);
}
template <typename T>
SLICK_REALTIME inline T MinSurvivors(const T* v, std::size_t n,
                                     uint64_t* mask) {
  return Survivors<LaneMin>(v, n, mask);
}

SLICK_REALTIME inline void SubtractArrays(const double* SLICK_RESTRICT a,
                                          const double* SLICK_RESTRICT b,
                                          double* SLICK_RESTRICT out,
                                          std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(out + i, Load(a + i) - Load(b + i));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

}  // namespace slick::ops::kernels::SLICK_SIMD_TARGET

#endif  // SLICK_SIMD_TARGET
