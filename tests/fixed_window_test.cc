// Oracle-driven validation of every fixed-window (slide-based) aggregator:
// Naive, FlatFAT, B-Int, FlatFIT, SlickDeque (Inv), SlickDeque (Non-Inv) and
// the Windowed<> adapter over TwoStacks/DABA. Each parameterized sweep runs
// a window size × input-shape grid and compares every answer — full window
// and, where supported, every sub-range — against a brute-force model. The
// per-query adapter must answer multi-range queries like the natively
// multi-query algorithms.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/per_query_adapter.h"
#include "core/range_aggregator.h"
#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "ops/ops.h"
#include "util/rng.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

using ::slick::core::PerQueryAdapter;
using ::slick::core::SlickDequeInv;
using ::slick::core::SlickDequeNonInv;
using ::slick::core::Windowed;
using ::slick::window::BInt;
using ::slick::window::Daba;
using ::slick::window::FlatFat;
using ::slick::window::FlatFit;
using ::slick::window::NaiveWindow;
using ::slick::window::TwoStacks;

// Input shapes: the deque-based algorithms are input-sensitive (§4.1), so
// the sweep covers the regimes that stress them differently.
enum class Shape { kRandom, kAscending, kDescending, kTiesHeavy };

int64_t GenInt(Shape shape, std::size_t step, util::SplitMix64& rng) {
  switch (shape) {
    case Shape::kRandom:
      return static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
    case Shape::kAscending:
      return static_cast<int64_t>(step);
    case Shape::kDescending:
      return 1000000 - static_cast<int64_t>(step);
    case Shape::kTiesHeavy:
      return static_cast<int64_t>(rng.NextBounded(3));
  }
  return 0;
}

inline uint64_t step_counter = 0;

template <typename Op>
typename Op::value_type LiftInt(int64_t v) {
  if constexpr (std::is_same_v<typename Op::input_type, int64_t>) {
    return Op::lift(v);
  } else if constexpr (std::is_same_v<typename Op::input_type, std::string>) {
    return Op::lift(std::string(1, static_cast<char>('a' + ((v % 26) + 26) % 26)));
  } else if constexpr (std::is_same_v<typename Op::input_type,
                                      ops::ArgSample>) {
    return Op::lift(ops::ArgSample{static_cast<double>(v),
                                   static_cast<uint64_t>(step_counter++)});
  } else {
    return Op::lift(static_cast<typename Op::input_type>(v));
  }
}

// Brute-force model of an always-full window (identity-prefilled).
template <typename Op>
class Model {
 public:
  explicit Model(std::size_t window) : vals_(window, Op::identity()) {}

  void slide(typename Op::value_type v) {
    vals_.pop_front();
    vals_.push_back(std::move(v));
  }

  typename Op::result_type query(std::size_t range) const {
    auto acc = Op::identity();
    for (std::size_t i = vals_.size() - range; i < vals_.size(); ++i) {
      acc = Op::combine(acc, vals_[i]);
    }
    return Op::lower(acc);
  }

 private:
  std::deque<typename Op::value_type> vals_;
};

// Uniform construction across aggregators with different constructors.
template <typename Agg>
struct Factory {
  static Agg Make(std::size_t window) { return Agg(window); }
};
template <ops::InvertibleOp Op>
struct Factory<SlickDequeInv<Op>> {
  static SlickDequeInv<Op> Make(std::size_t window) {
    std::vector<std::size_t> ranges(window);
    std::iota(ranges.begin(), ranges.end(), 1);
    return SlickDequeInv<Op>(window, std::move(ranges));
  }
};

// Drives `Agg` against the model. `check_ranges` additionally validates
// every sub-range 1..window after each slide (multi-query behaviour).
template <typename Agg>
void RunOracle(std::size_t window, Shape shape, bool check_ranges) {
  using Op = typename Agg::op_type;
  Agg agg = Factory<Agg>::Make(window);
  Model<Op> model(window);
  util::SplitMix64 rng(0x5eed + window * 1315423911ULL +
                       static_cast<uint64_t>(shape));
  const std::size_t steps = 3 * window + 40;
  for (std::size_t step = 0; step < steps; ++step) {
    auto v = LiftInt<Op>(GenInt(shape, step, rng));
    agg.slide(v);
    model.slide(v);
    ASSERT_EQ(agg.query(), model.query(window))
        << "window=" << window << " step=" << step << " (full range)";
    if (check_ranges) {
      for (std::size_t r = 1; r <= window; ++r) {
        ASSERT_EQ(agg.query(r), model.query(r))
            << "window=" << window << " step=" << step << " range=" << r;
      }
    }
  }
}

class WindowSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, Shape>> {
 protected:
  std::size_t window() const { return std::get<0>(GetParam()); }
  Shape shape() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, WindowSweep,
    ::testing::Combine(::testing::ValuesIn(std::vector<std::size_t>{
                           1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64,
                           100}),
                       ::testing::Values(Shape::kRandom, Shape::kAscending,
                                         Shape::kDescending,
                                         Shape::kTiesHeavy)),
    [](const auto& tpi) {
      // Built with += (not chained operator+): GCC 12's -Wrestrict
      // false-positives on `const char* + std::string&&` at -O2.
      std::string name = "w";
      name += std::to_string(std::get<0>(tpi.param));
      name += "_shape";
      name += std::to_string(static_cast<int>(std::get<1>(tpi.param)));
      return name;
    });

// --------------------------- Naive ---------------------------------------

TEST_P(WindowSweep, NaiveSumAllRanges) {
  RunOracle<NaiveWindow<ops::SumInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, NaiveMaxAllRanges) {
  RunOracle<NaiveWindow<ops::MaxInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, NaiveConcatAllRanges) {
  RunOracle<NaiveWindow<ops::Concat>>(window(), shape(), true);
}

// --------------------------- FlatFAT -------------------------------------

TEST_P(WindowSweep, FlatFatSumAllRanges) {
  RunOracle<FlatFat<ops::SumInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, FlatFatMaxAllRanges) {
  RunOracle<FlatFat<ops::MaxInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, FlatFatConcatAllRanges) {
  RunOracle<FlatFat<ops::Concat>>(window(), shape(), true);
}

// --------------------------- B-Int ---------------------------------------

TEST_P(WindowSweep, BIntSumAllRanges) {
  RunOracle<BInt<ops::SumInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, BIntMaxAllRanges) {
  RunOracle<BInt<ops::MaxInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, BIntConcatAllRanges) {
  RunOracle<BInt<ops::Concat>>(window(), shape(), true);
}

// --------------------------- FlatFIT -------------------------------------

TEST_P(WindowSweep, FlatFitSumFullWindow) {
  RunOracle<FlatFit<ops::SumInt>>(window(), shape(), false);
}
TEST_P(WindowSweep, FlatFitSumAllRanges) {
  RunOracle<FlatFit<ops::SumInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, FlatFitMaxAllRanges) {
  RunOracle<FlatFit<ops::MaxInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, FlatFitConcatAllRanges) {
  RunOracle<FlatFit<ops::Concat>>(window(), shape(), true);
}

// --------------------------- SlickDeque (Inv) ----------------------------

TEST_P(WindowSweep, SlickDequeInvSumAllRanges) {
  RunOracle<SlickDequeInv<ops::SumInt>>(window(), shape(), true);
}

// --------------------------- SlickDeque (Non-Inv) ------------------------

TEST_P(WindowSweep, SlickDequeNonInvMaxAllRanges) {
  RunOracle<SlickDequeNonInv<ops::MaxInt>>(window(), shape(), true);
}
TEST_P(WindowSweep, SlickDequeNonInvArgMaxAllRanges) {
  RunOracle<SlickDequeNonInv<ops::ArgMax>>(window(), shape(), true);
}

TEST_P(WindowSweep, SlickDequeNonInvQueryMultiMatchesSingles) {
  using Agg = SlickDequeNonInv<ops::MaxInt>;
  Agg agg(window());
  Model<ops::MaxInt> model(window());
  util::SplitMix64 rng(0xabc + window());
  std::vector<std::size_t> ranges_desc;
  for (std::size_t r = window(); r >= 1; --r) ranges_desc.push_back(r);
  std::vector<int64_t> out;
  for (std::size_t step = 0; step < 2 * window() + 20; ++step) {
    const int64_t v = GenInt(shape(), step, rng);
    agg.slide(v);
    model.slide(v);
    out.clear();
    agg.query_multi(ranges_desc, out);
    ASSERT_EQ(out.size(), ranges_desc.size());
    for (std::size_t i = 0; i < ranges_desc.size(); ++i) {
      ASSERT_EQ(out[i], model.query(ranges_desc[i]))
          << "range=" << ranges_desc[i] << " step=" << step;
    }
  }
}

TEST_P(WindowSweep, SlickDequeNonInvQueryMultiRandomSubsets) {
  // The shared walk against N independent query(r) calls, on random sparse
  // descending range sets (with duplicates), interleaved with bulk slides
  // so the walk runs over survivor-mask-built deques too.
  using Agg = SlickDequeNonInv<ops::MaxInt>;
  Agg agg(window());
  Agg single(window());
  util::SplitMix64 rng(0xdef + window());
  std::vector<int64_t> batch;
  std::vector<std::size_t> ranges_desc;
  std::vector<int64_t> out;
  for (std::size_t step = 0; step < 40; ++step) {
    batch.clear();
    const std::size_t b = 1 + rng.NextBounded(window() + 3);
    for (std::size_t i = 0; i < b; ++i) {
      batch.push_back(GenInt(shape(), step * 131 + i, rng));
    }
    agg.BulkSlide(batch.data(), batch.size());
    for (int64_t v : batch) single.slide(v);
    ranges_desc.clear();
    const std::size_t q = 1 + rng.NextBounded(2 * window());
    for (std::size_t i = 0; i < q; ++i) {
      ranges_desc.push_back(1 + rng.NextBounded(window()));
    }
    std::sort(ranges_desc.rbegin(), ranges_desc.rend());
    out.clear();
    agg.query_multi(ranges_desc, out);
    ASSERT_EQ(out.size(), ranges_desc.size());
    for (std::size_t i = 0; i < ranges_desc.size(); ++i) {
      ASSERT_EQ(out[i], single.query(ranges_desc[i]))
          << "range=" << ranges_desc[i] << " step=" << step;
    }
  }
}

// Registered ranges (answer cursors) against an unregistered twin fed the
// same calls, whose answers come from the paper's head walk. Random
// slide/BulkSlide interleavings (batches up to window+3, so the n >= window
// restart runs too) and skipped query steps let cursors lag while tail pops
// cross them; query sets mix registered, unregistered and duplicate
// ranges. The checkpoint bytes must match (cursors are not state), and
// midway both instances rewind to an earlier checkpoint, which leaves the
// registered instance's cursors past the restored deque's end until
// LoadState resets them.
template <typename Op>
void RunRegisteredTwin(std::size_t window, Shape shape) {
  using Agg = SlickDequeNonInv<Op>;
  using Value = typename Op::value_type;
  util::SplitMix64 rng(0xc0c0 + window * 7919 + static_cast<uint64_t>(shape));
  std::vector<std::size_t> registered{window};
  for (std::size_t r = 1; r <= window; ++r) {
    if (rng.NextBounded(3) == 0) registered.push_back(r);
  }
  registered.push_back(registered.back());  // duplicates collapse
  Agg reg(window, registered);
  Agg twin(window);
  const auto bytes = [](const Agg& agg) {
    std::ostringstream os;
    agg.SaveState(os);
    return os.str();
  };
  const std::size_t steps = 60;
  std::string snapshot;
  std::vector<Value> batch;
  std::vector<std::size_t> ranges_desc;
  std::vector<typename Op::result_type> out;
  for (std::size_t step = 0; step < steps; ++step) {
    batch.clear();
    const bool single = rng.NextBounded(2) == 0;
    const std::size_t b = single ? 1 : 1 + rng.NextBounded(window + 3);
    for (std::size_t i = 0; i < b; ++i) {
      batch.push_back(LiftInt<Op>(GenInt(shape, step * 131 + i, rng)));
    }
    if (single) {
      reg.slide(batch[0]);
      twin.slide(batch[0]);
    } else {
      reg.BulkSlide(batch.data(), b);
      twin.BulkSlide(batch.data(), b);
    }
    ASSERT_EQ(bytes(reg), bytes(twin)) << "step=" << step;
    if (step == steps / 3) snapshot = bytes(twin);
    if (step == 2 * steps / 3) {
      std::istringstream reg_is(snapshot), twin_is(snapshot);
      ASSERT_TRUE(reg.LoadState(reg_is));
      ASSERT_TRUE(twin.LoadState(twin_is));
    }
    if (rng.NextBounded(4) == 0) continue;  // let the cursors lag
    ranges_desc.clear();
    const std::size_t q = 1 + rng.NextBounded(6);
    for (std::size_t i = 0; i < q; ++i) {
      ranges_desc.push_back(rng.NextBounded(2) == 0
                                ? registered[rng.NextBounded(registered.size())]
                                : 1 + rng.NextBounded(window));
    }
    std::sort(ranges_desc.rbegin(), ranges_desc.rend());
    out.clear();
    reg.query_multi(ranges_desc, out);
    ASSERT_EQ(out.size(), ranges_desc.size());
    for (std::size_t i = 0; i < ranges_desc.size(); ++i) {
      ASSERT_EQ(out[i], twin.query(ranges_desc[i]))
          << "range=" << ranges_desc[i] << " step=" << step;
    }
    const std::size_t r = 1 + rng.NextBounded(window);
    ASSERT_EQ(reg.query(r), twin.query(r)) << "range=" << r << " step=" << step;
    ASSERT_EQ(reg.query(), twin.query()) << "step=" << step;
  }
}

// One op per AppendBatch branch: the survivor-mask staircase (MaxInt), the
// suffix-scan staircase (ArgMax: total order, no mask kernel) and the
// per-element stack loop (CountingOp forwards no kAbsorbsTotal).
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredMask) {
  RunRegisteredTwin<ops::MaxInt>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredStaircase) {
  RunRegisteredTwin<ops::ArgMax>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredPerElement) {
  static_assert(!ops::TotalOrderSelectiveOp<ops::CountingOp<ops::MaxInt>>);
  RunRegisteredTwin<ops::CountingOp<ops::MaxInt>>(window(), shape());
}

// --------------------------- Windowed adapters ---------------------------

TEST_P(WindowSweep, WindowedTwoStacksSum) {
  RunOracle<Windowed<TwoStacks<ops::SumInt>>>(window(), shape(), false);
}
TEST_P(WindowSweep, WindowedTwoStacksMax) {
  RunOracle<Windowed<TwoStacks<ops::MaxInt>>>(window(), shape(), false);
}
TEST_P(WindowSweep, WindowedDabaSum) {
  RunOracle<Windowed<Daba<ops::SumInt>>>(window(), shape(), false);
}
TEST_P(WindowSweep, WindowedDabaMax) {
  RunOracle<Windowed<Daba<ops::MaxInt>>>(window(), shape(), false);
}
TEST_P(WindowSweep, WindowedDabaConcat) {
  RunOracle<Windowed<Daba<ops::Concat>>>(window(), shape(), false);
}

// --------------------------- RangeAggregator -----------------------------

TEST_P(WindowSweep, RangeAggregatorMatchesMaxMinusMin) {
  core::RangeAggregator agg(window());
  Model<ops::Max> max_model(window());
  Model<ops::Min> min_model(window());
  util::SplitMix64 rng(0x7777 + window());
  for (std::size_t step = 0; step < 2 * window() + 20; ++step) {
    const double v = static_cast<double>(GenInt(shape(), step, rng));
    agg.slide(v);
    max_model.slide(v);
    min_model.slide(v);
    ASSERT_EQ(agg.query(), max_model.query(window()) - min_model.query(window()));
    const std::size_t r = 1 + rng.NextBounded(window());
    ASSERT_EQ(agg.query(r), max_model.query(r) - min_model.query(r));
  }
}

TEST_P(WindowSweep, RangeAggregatorQueryMultiMatchesSingles) {
  core::RangeAggregator agg(window());
  util::SplitMix64 rng(0x8888 + window());
  std::vector<std::size_t> ranges_desc;
  std::vector<double> out;
  for (std::size_t step = 0; step < 2 * window() + 20; ++step) {
    agg.slide(static_cast<double>(GenInt(shape(), step, rng)));
    ranges_desc.clear();
    const std::size_t q = 1 + rng.NextBounded(window());
    for (std::size_t i = 0; i < q; ++i) {
      ranges_desc.push_back(1 + rng.NextBounded(window()));
    }
    std::sort(ranges_desc.rbegin(), ranges_desc.rend());
    out.clear();
    agg.query_multi(ranges_desc, out);
    ASSERT_EQ(out.size(), ranges_desc.size());
    for (std::size_t i = 0; i < ranges_desc.size(); ++i) {
      ASSERT_EQ(out[i], agg.query(ranges_desc[i]))
          << "range=" << ranges_desc[i] << " step=" << step;
    }
  }
}

TEST_P(WindowSweep, RangeAggregatorRegisteredMatchesUnregistered) {
  std::vector<std::size_t> registered{window(), 1 + window() / 2, 1};
  core::RangeAggregator reg(window(), registered);
  core::RangeAggregator plain(window());
  util::SplitMix64 rng(0x9999 + window());
  std::vector<std::size_t> ranges_desc;
  std::vector<double> out, expect;
  for (std::size_t step = 0; step < 2 * window() + 20; ++step) {
    const double v = static_cast<double>(GenInt(shape(), step, rng));
    reg.slide(v);
    plain.slide(v);
    ranges_desc = registered;
    ranges_desc.push_back(1 + rng.NextBounded(window()));
    std::sort(ranges_desc.rbegin(), ranges_desc.rend());
    out.clear();
    expect.clear();
    reg.query_multi(ranges_desc, out);
    plain.query_multi(ranges_desc, expect);
    ASSERT_EQ(out, expect) << "step=" << step;
  }
}

// --------------------------- Targeted edge cases -------------------------

TEST(FixedWindowEdgeTest, WindowOfOneAnswersNewest) {
  NaiveWindow<ops::SumInt> naive(1);
  FlatFat<ops::SumInt> fat(1);
  FlatFit<ops::SumInt> fit(1);
  SlickDequeInv<ops::SumInt> inv(1);
  SlickDequeNonInv<ops::MaxInt> noninv(1);
  for (int64_t v : {5, -3, 12}) {
    naive.slide(v);
    fat.slide(v);
    fit.slide(v);
    inv.slide(v);
    noninv.slide(v);
    EXPECT_EQ(naive.query(), v);
    EXPECT_EQ(fat.query(), v);
    EXPECT_EQ(fit.query(), v);
    EXPECT_EQ(inv.query(), v);
    EXPECT_EQ(noninv.query(), v);
  }
}

TEST(FixedWindowEdgeTest, IdentityPrefillIsVisibleBeforeWarmup) {
  // Before `window` slides have happened the remaining slots still hold the
  // identity, exactly as the paper's Preparation phase prescribes.
  NaiveWindow<ops::SumInt> naive(4);
  naive.slide(10);
  EXPECT_EQ(naive.query(), 10);   // 0+0+0+10
  EXPECT_EQ(naive.query(2), 10);  // 0+10
  EXPECT_EQ(naive.query(1), 10);
}

TEST(FixedWindowEdgeTest, SlickDequeInvUnregisteredRangeIsRejected) {
  SlickDequeInv<ops::SumInt> inv(8, {8, 3});
  EXPECT_TRUE(inv.has_range(3));
  EXPECT_TRUE(inv.has_range(8));
  EXPECT_FALSE(inv.has_range(5));
  EXPECT_DEATH(inv.query(5), "not registered");
}

TEST(FixedWindowEdgeTest, SlickDequeNonInvNodeCountStaysOneOnAscending) {
  // Each new maximum evicts the whole deque: the best-case space regime
  // (§4.2 — "constant (2)").
  SlickDequeNonInv<ops::MaxInt> agg(64);
  for (int64_t v = 0; v < 200; ++v) {
    agg.slide(v);
    EXPECT_EQ(agg.node_count(), 1u);
    EXPECT_EQ(agg.query(), v);
  }
}

TEST(FixedWindowEdgeTest, SlickDequeNonInvDequeFillsOnDescending) {
  // Strictly descending input is the worst case: nothing dominates, the
  // deque grows to the window size (§4.2).
  const std::size_t w = 32;
  SlickDequeNonInv<ops::MaxInt> agg(w);
  for (int64_t v = 0; v < 200; ++v) {
    agg.slide(1000000 - v);
  }
  EXPECT_EQ(agg.node_count(), w);
}

// --------------------------- PerQueryAdapter ------------------------------

TEST(PerQueryAdapterTest, MatchesNativeMultiQuery) {
  const std::size_t window = 48;
  std::vector<std::size_t> ranges = {1, 7, 16, 48};
  PerQueryAdapter<window::TwoStacks<ops::MaxInt>> two_stacks(window, ranges);
  PerQueryAdapter<window::Daba<ops::MaxInt>> daba(window, ranges);
  SlickDequeNonInv<ops::MaxInt> native(window);

  util::SplitMix64 rng(5);
  for (int i = 0; i < 300; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(10000));
    two_stacks.slide(v);
    daba.slide(v);
    native.slide(v);
    for (std::size_t r : ranges) {
      ASSERT_EQ(two_stacks.query(r), native.query(r)) << "r=" << r;
      ASSERT_EQ(daba.query(r), native.query(r)) << "r=" << r;
    }
  }
}

TEST(PerQueryAdapterTest, MemoryScalesWithSumOfRanges) {
  PerQueryAdapter<window::Daba<ops::Sum>> small(1024, {8});
  PerQueryAdapter<window::Daba<ops::Sum>> large(1024, {8, 512, 1024});
  EXPECT_GT(large.memory_bytes(), small.memory_bytes() + 1024 * sizeof(double));
}

TEST(PerQueryAdapterTest, RejectsUnregisteredRange) {
  PerQueryAdapter<window::Daba<ops::Sum>> adapter(64, {64, 8});
  adapter.slide(1.0);
  EXPECT_DEATH(adapter.query(32), "not registered");
}

}  // namespace
}  // namespace slick
