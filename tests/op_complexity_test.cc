// Empirical verification of Table 1 (paper §4.1): the number of aggregate
// operations (⊕/⊖ applications, counted via CountingOp) per slide, for each
// algorithm, in the single-query and max-multi-query environments. These
// are the paper's analytical claims turned into assertions.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "ops/arith.h"
#include "ops/counting.h"
#include "ops/minmax.h"
#include "util/math.h"
#include "util/rng.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

using ops::OpCounter;
using CSum = ops::CountingOp<ops::SumInt>;
using CMax = ops::CountingOp<ops::MaxInt>;

struct OpStats {
  double amortized = 0.0;
  uint64_t worst = 0;
};

template <typename Agg, typename Make, typename Answer>
OpStats Measure(std::size_t n, Make make, Answer answer, uint64_t laps = 6,
                uint64_t seed = 99) {
  using Op = typename Agg::op_type;
  Agg agg = make(n);
  util::SplitMix64 rng(seed);
  auto next = [&] { return static_cast<int64_t>(rng.NextBounded(100000)); };
  for (std::size_t i = 0; i < n; ++i) agg.slide(Op::lift(next()));
  OpCounter::Reset();
  OpStats stats;
  uint64_t total = 0;
  const uint64_t slides = laps * n;
  for (uint64_t i = 0; i < slides; ++i) {
    const uint64_t before = OpCounter::Total();
    agg.slide(Op::lift(next()));
    answer(agg);
    const uint64_t per = OpCounter::Total() - before;
    stats.worst = std::max(stats.worst, per);
    total += per;
  }
  stats.amortized = static_cast<double>(total) / static_cast<double>(slides);
  return stats;
}

template <typename Agg>
Agg MakeWindow(std::size_t n) {
  return Agg(n);
}

const auto kFullQuery = [](auto& agg) { (void)agg.query(); };

class OpComplexitySweep : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Windows, OpComplexitySweep,
                         ::testing::Values(8, 16, 64, 128, 256, 1024),
                         [](const auto& tpi) {
                           std::string name("n");
                           name += std::to_string(tpi.param);
                           return name;
                         });

// --------------------------- single query --------------------------------

TEST_P(OpComplexitySweep, NaiveIsExactlyNMinusOne) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<window::NaiveWindow<CSum>>(
      n, MakeWindow<window::NaiveWindow<CSum>>, kFullQuery);
  EXPECT_DOUBLE_EQ(s.amortized, static_cast<double>(n - 1));
  EXPECT_EQ(s.worst, n - 1);
}

TEST_P(OpComplexitySweep, FlatFatIsLogN) {
  const std::size_t n = GetParam();  // powers of two: exactly log2(n)
  const OpStats s = Measure<window::FlatFat<CSum>>(
      n, MakeWindow<window::FlatFat<CSum>>, kFullQuery);
  EXPECT_DOUBLE_EQ(s.amortized, static_cast<double>(util::CeilLog2(n)));
  EXPECT_EQ(s.worst, util::CeilLog2(n));
}

TEST_P(OpComplexitySweep, BIntIsOrderLogN) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<window::BInt<CSum>>(
      n, MakeWindow<window::BInt<CSum>>, kFullQuery);
  // log2(n) for the update; the lookup adds a bounded constant factor.
  EXPECT_GE(s.amortized, static_cast<double>(util::CeilLog2(n)));
  EXPECT_LE(s.worst, 3 * util::CeilLog2(n) + 3);
}

TEST_P(OpComplexitySweep, FlatFitAmortizedConstantWorstLinear) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<window::FlatFit<CSum>>(
      n, MakeWindow<window::FlatFit<CSum>>, kFullQuery);
  // Paper: amortized 3 (its accounting charges the window reset n-1; our
  // reset also pays ~n-2 path-compression combines, and each steady slide
  // costs 4: two traversal hops, the answer, one re-compression). The
  // bound that matters — amortized O(1), independent of n — holds.
  EXPECT_LE(s.amortized, 7.0);
  EXPECT_GE(s.amortized, 3.0);
  EXPECT_GE(s.worst, n / 2);  // the cyclical window reset
  EXPECT_LE(s.worst, 2 * n);
}

TEST_P(OpComplexitySweep, TwoStacksAmortizedThreeWorstN) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<core::Windowed<window::TwoStacks<CSum>>>(
      n, MakeWindow<core::Windowed<window::TwoStacks<CSum>>>, kFullQuery);
  EXPECT_LE(s.amortized, 3.5);  // paper: amortized 3
  EXPECT_GE(s.worst, n - 1);    // the flip
  EXPECT_LE(s.worst, n + 3);
}

TEST_P(OpComplexitySweep, DabaWorstCaseConstant) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<core::Windowed<window::Daba<CSum>>>(
      n, MakeWindow<core::Windowed<window::Daba<CSum>>>, kFullQuery);
  EXPECT_LE(s.amortized, 6.0);  // paper: amortized 5
  EXPECT_LE(s.worst, 8u);       // paper: worst 8 — THE DABA GUARANTEE
  EXPECT_GE(s.amortized, 3.0);  // de-amortization is not free
}

TEST_P(OpComplexitySweep, SlickDequeInvIsExactlyTwo) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<core::SlickDequeInv<CSum>>(
      n, MakeWindow<core::SlickDequeInv<CSum>>, kFullQuery);
  EXPECT_DOUBLE_EQ(s.amortized, 2.0);  // paper: exactly 2 (one ⊕, one ⊖)
  EXPECT_EQ(s.worst, 2u);
}

TEST_P(OpComplexitySweep, SlickDequeNonInvAmortizedBelowTwo) {
  const std::size_t n = GetParam();
  const OpStats s = Measure<core::SlickDequeNonInv<CMax>>(
      n, MakeWindow<core::SlickDequeNonInv<CMax>>, kFullQuery);
  EXPECT_LT(s.amortized, 2.0);  // paper: always < 2, input-dependent
  EXPECT_LE(s.worst, n);
}

TEST(OpComplexityTest, SlickDequeNonInvWorstCaseNeedsAdversarialInput) {
  // A descending window followed by a dominating value costs n - 1 in one
  // slide: the head expires before the prune, so n - 1 nodes are left to
  // test (probability 2/n! under uniform input; see the enumeration
  // below).
  const std::size_t n = 64;
  core::SlickDequeNonInv<CMax> agg(n);
  for (std::size_t i = 0; i < n; ++i) {
    agg.slide(static_cast<int64_t>(1000000 - i));
  }
  OpCounter::Reset();
  agg.slide(static_cast<int64_t>(2000000));
  EXPECT_GE(OpCounter::Total(), n - 1);
}

TEST(OpComplexityTest, SlickDequeNonInvWorstStaysFarBelowWindow) {
  // §4.1 summary: a slide costing k ops needs k+1 suitably ordered inputs
  // (probability ~1/(k+1)! each step), so bursts above DABA's bound of 8
  // happen occasionally but the window-sized worst case is vanishingly
  // rare on random data.
  const OpStats slick = Measure<core::SlickDequeNonInv<CMax>>(
      256, MakeWindow<core::SlickDequeNonInv<CMax>>, kFullQuery, 20);
  EXPECT_LE(slick.worst, 32u);
  EXPECT_LT(slick.amortized, 2.0);
}

TEST(OpComplexityTest, SlickDequeNonInvExactSlideDistribution) {
  // §4.1 exactly, not sampled: every order of n + 1 distinct values is
  // equally likely under uniform input, so summing over all (n + 1)! of
  // them prices the first slide that expires a node by its exact
  // distribution.
  //  * The absorbs tests total (2 - 2/n)·(n + 1)!: 2 - 2/n per slide.
  //  * The worst slide costs n - 1 tests (the head expires first), and
  //    2(n + 1) orders reach it: probability 2/n!.
  //  * After the n-th slide the deque holds the window's suffix maxima,
  //    H_n of them on average: the node counts total H_n·(n + 1)!.
  for (std::size_t n = 2; n <= 8; ++n) {
    std::vector<int64_t> order(n + 1);
    std::iota(order.begin(), order.end(), 0);
    uint64_t orders = 0, tests = 0, worst = 0, at_worst = 0, nodes = 0;
    do {
      core::SlickDequeNonInv<CMax> agg(n);
      for (std::size_t i = 0; i < n; ++i) agg.slide(order[i]);
      nodes += agg.node_count();
      OpCounter::Reset();
      agg.slide(order[n]);
      const uint64_t cost = OpCounter::Total();
      tests += cost;
      if (cost > worst) {
        worst = cost;
        at_worst = 0;
      }
      if (cost == worst) ++at_worst;
      ++orders;
    } while (std::next_permutation(order.begin(), order.end()));
    uint64_t n_factorial = 1;
    for (uint64_t k = 2; k <= n; ++k) n_factorial *= k;
    uint64_t harmonic_times_n_factorial = 0;  // H_n·n! = Σ n!/k
    for (uint64_t k = 1; k <= n; ++k) {
      harmonic_times_n_factorial += n_factorial / k;
    }
    ASSERT_EQ(orders, (n + 1) * n_factorial);
    EXPECT_EQ(tests, (2 * n - 2) * orders / n) << "n=" << n;
    EXPECT_EQ(worst, n - 1) << "n=" << n;
    EXPECT_EQ(at_worst, 2 * (n + 1)) << "n=" << n;
    EXPECT_EQ(nodes, (n + 1) * harmonic_times_n_factorial) << "n=" << n;
  }
}

TEST(OpComplexityTest, SlickDequeNonInvFifoFaceSlidesInLockstep) {
  // slide() is evict-when-full, then insert: the fixed face and the FIFO
  // face driven that way hold the same deque and pay the same absorbs
  // tests on every step, so Table 1's cost holds for both faces. Narrow
  // value ranges force ties; wide ones give deep deques.
  for (std::size_t n : {1, 2, 3, 8, 64, 257}) {
    for (uint64_t range : {4u, 100000u}) {
      core::SlickDequeNonInv<CMax> fixed(n);
      core::SlickDequeNonInv<CMax> fifo;
      util::SplitMix64 rng(7 * n + range);
      for (std::size_t step = 0; step < 8 * n + 64; ++step) {
        const auto v = static_cast<int64_t>(rng.NextBounded(range));
        OpCounter::Reset();
        fixed.slide(v);
        const uint64_t fixed_tests = OpCounter::Total();
        OpCounter::Reset();
        if (fifo.size() == n) fifo.evict();
        fifo.insert(v);
        const uint64_t fifo_tests = OpCounter::Total();
        ASSERT_EQ(fifo.query(), fixed.query()) << "n=" << n << " " << step;
        ASSERT_EQ(fifo.node_count(), fixed.node_count())
            << "n=" << n << " step " << step;
        ASSERT_EQ(fifo_tests, fixed_tests) << "n=" << n << " step " << step;
        ASSERT_EQ(fifo.size(), fixed.size()) << "n=" << n << " step " << step;
      }
    }
  }
}

// --------------------------- max-multi-query ------------------------------

template <typename Agg>
OpStats MeasureMulti(std::size_t n) {
  auto all_ranges = [n](auto& agg) {
    for (std::size_t r = n; r >= 1; --r) (void)agg.query(r);
  };
  return Measure<Agg>(n, MakeWindow<Agg>, all_ranges);
}

TEST_P(OpComplexitySweep, MultiNaiveIsQuadratic) {
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "quadratic cost";
  const OpStats s = MeasureMulti<window::NaiveWindow<CSum>>(n);
  const double expected =
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(s.amortized, expected);  // paper: n²/2 - n/2 exactly
}

TEST_P(OpComplexitySweep, MultiFlatFitIsNMinusOne) {
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "keep test time bounded";
  const OpStats s = MeasureMulti<window::FlatFit<CSum>>(n);
  // Paper: n-1 ops per slide once the structure is maximally updated; our
  // per-range traversals add a constant factor (~3n) but stay linear, far
  // below FlatFAT's n*log(n) and Naive's n^2/2.
  EXPECT_LE(s.amortized, 3.2 * static_cast<double>(n));
  EXPECT_GE(s.amortized, static_cast<double>(n) - 1.0);
}

TEST_P(OpComplexitySweep, MultiFlatFatIsNLogN) {
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "keep test time bounded";
  const OpStats s = MeasureMulti<window::FlatFat<CSum>>(n);
  const double nlogn =
      static_cast<double>(n) * static_cast<double>(util::CeilLog2(n));
  EXPECT_LE(s.amortized, nlogn + static_cast<double>(n));
  EXPECT_GE(s.amortized, nlogn / 4);
}

TEST_P(OpComplexitySweep, MultiSlickDequeInvIsExactlyTwoN) {
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "keep test time bounded";
  auto make = [](std::size_t w) {
    std::vector<std::size_t> ranges(w);
    for (std::size_t r = 1; r <= w; ++r) ranges[r - 1] = r;
    return core::SlickDequeInv<CSum>(w, std::move(ranges));
  };
  auto drain = [](core::SlickDequeInv<CSum>& agg) {
    agg.for_each_answer([](std::size_t, int64_t) {});
  };
  const OpStats s = Measure<core::SlickDequeInv<CSum>>(n, make, drain);
  EXPECT_DOUBLE_EQ(s.amortized, 2.0 * static_cast<double>(n));  // paper: 2n
  EXPECT_EQ(s.worst, 2 * n);
}

TEST_P(OpComplexitySweep, MultiSlickDequeNonInvAtMostTwoN) {
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "keep test time bounded";
  std::vector<std::size_t> ranges_desc(n);
  for (std::size_t r = 0; r < n; ++r) ranges_desc[r] = n - r;
  std::vector<int64_t> out;
  auto drain = [&](core::SlickDequeNonInv<CMax>& agg) {
    out.clear();
    agg.query_multi(ranges_desc, out);
  };
  const OpStats s = Measure<core::SlickDequeNonInv<CMax>>(
      n, MakeWindow<core::SlickDequeNonInv<CMax>>, drain);
  // Answering costs ZERO aggregate operations — only the deque maintenance
  // counts, which stays below 2 per slide regardless of the query load.
  EXPECT_LT(s.amortized, 2.0);
  EXPECT_LE(s.worst, 2 * n);
}

TEST_P(OpComplexitySweep, MultiSlickDequeNonInvRegisteredAnswersCostZero) {
  // Registered ranges (answer cursors) only move where each answer's walk
  // starts: answering still costs zero ⊕, and both Table 1 rows
  // (bench/table1_opcounts) count exactly what the unregistered deque does.
  const std::size_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "keep test time bounded";
  using Agg = core::SlickDequeNonInv<CMax>;
  std::vector<std::size_t> ranges_desc(n);
  for (std::size_t r = 0; r < n; ++r) ranges_desc[r] = n - r;
  const auto registered = [&](std::size_t w) { return Agg(w, ranges_desc); };
  std::vector<int64_t> out;
  uint64_t answer_ops = 0;
  auto drain = [&](Agg& agg) {
    out.clear();
    const uint64_t before = OpCounter::Total();
    agg.query_multi(ranges_desc, out);
    answer_ops += OpCounter::Total() - before;
  };
  const OpStats multi = Measure<Agg>(n, registered, drain);
  EXPECT_EQ(answer_ops, 0u);
  const OpStats multi_plain = Measure<Agg>(n, MakeWindow<Agg>, drain);
  EXPECT_DOUBLE_EQ(multi.amortized, multi_plain.amortized);
  EXPECT_EQ(multi.worst, multi_plain.worst);
  const OpStats single = Measure<Agg>(n, registered, kFullQuery);
  const OpStats single_plain = Measure<Agg>(n, MakeWindow<Agg>, kFullQuery);
  EXPECT_DOUBLE_EQ(single.amortized, single_plain.amortized);
  EXPECT_EQ(single.worst, single_plain.worst);
}

}  // namespace
}  // namespace slick
