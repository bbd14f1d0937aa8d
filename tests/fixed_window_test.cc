// Oracle-driven validation of every fixed-window (slide-based) aggregator:
// Naive, FlatFAT, B-Int, FlatFIT, SlickDeque (Inv), SlickDeque (Non-Inv) and
// the Windowed<> adapter over TwoStacks/DABA. Each parameterized sweep runs
// a window size × input-shape grid and compares every answer — full window
// and, where supported, every sub-range — against a brute-force model. The
// per-query adapter must answer multi-range queries like the natively
// multi-query algorithms.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
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
TEST_P(WindowSweep, SlickDequeNonInvMinAllRanges) {
  RunOracle<SlickDequeNonInv<ops::MinInt>>(window(), shape(), true);
  RunOracle<SlickDequeNonInv<ops::Min>>(window(), shape(), true);
}
TEST_P(WindowSweep, SlickDequeNonInvArgMaxAllRanges) {
  RunOracle<SlickDequeNonInv<ops::ArgMax>>(window(), shape(), true);
}

template <typename Op>
void RunQueryMulti(std::size_t window, Shape shape) {
  SlickDequeNonInv<Op> agg(window);
  Model<Op> model(window);
  util::SplitMix64 rng(0xabc + window);
  std::vector<std::size_t> ranges_desc;
  for (std::size_t r = window; r >= 1; --r) ranges_desc.push_back(r);
  std::vector<typename Op::result_type> out;
  for (std::size_t step = 0; step < 2 * window + 20; ++step) {
    const auto v = LiftInt<Op>(GenInt(shape, step, rng));
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

TEST_P(WindowSweep, SlickDequeNonInvQueryMultiMatchesSingles) {
  RunQueryMulti<ops::MaxInt>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvMinQueryMultiMatchesSingles) {
  RunQueryMulti<ops::MinInt>(window(), shape());
  if (HasFatalFailure()) return;
  RunQueryMulti<ops::Min>(window(), shape());
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

// A scripted input segment: its values, and the BulkSlide chunk size used
// when the script runs batched (0: the whole segment in one call).
struct Segment {
  std::vector<int64_t> values;
  std::size_t chunk;
};

// Scripted inputs for a registered deque and an unregistered twin, fed
// by slide() or by BulkSlide() (`bulk`), checked against NaiveWindow over
// every range after every call:
//  * descending runs, each followed by a value that pops exactly 7, 8 or
//    9 tail nodes (the branch-free prune tests 8 nodes per pass);
//  * a sawtooth that keeps the deque short while its head expires, so the
//    ring's head leaves slot 0; then a descending run that fills the deque
//    to the window — above 64 the ring grows while its nodes wrap — and
//    one value that pops the whole deque; then random values.
// Windows below 8 hold rings smaller than the probe. For CountingOp the
// deque's ⊕ count must equal Algorithm 2's exact pop loop replayed on a
// reference deque: one test per popped node plus one for the node that
// stops the loop, with BulkSlide's expiry hoisted and its restart empty.
// Min ops run the script negated, so every segment pops the same nodes.
template <typename Op>
constexpr bool kMinDirection =
    std::is_same_v<Op, ops::MinInt> || std::is_same_v<Op, ops::Min>;

template <typename Op>
void RunScriptedTwin(std::size_t window, bool bulk) {
  using Agg = SlickDequeNonInv<Op>;
  using Value = typename Op::value_type;
  std::vector<std::size_t> registered;
  for (std::size_t r = window; r >= 1; --r) {
    if (r % 3 != 1 || r == window) registered.push_back(r);
  }
  Agg reg(window, registered);
  Agg twin(window);
  NaiveWindow<Op> naive(window);
  std::vector<std::size_t> all_desc;
  for (std::size_t r = window; r >= 1; --r) all_desc.push_back(r);
  const auto bytes = [](const Agg& agg) {
    std::ostringstream os;
    agg.SaveState(os);
    return os.str();
  };

  std::deque<std::pair<uint64_t, Value>> model;  // (slide index, value)
  uint64_t n = 0, model_ops = 0, deque_ops = 0;
  const auto model_push = [&](const Value& v, uint64_t t) {
    while (!model.empty()) {
      ++model_ops;
      if (!ops::Absorbs<Op>(v, model.back().second)) break;
      model.pop_back();
    }
    model.emplace_back(t, v);
  };
  const auto feed = [&](const std::vector<Value>& vals) {
    const uint64_t before = ops::OpCounter::combines;
    if (bulk) {
      reg.BulkSlide(vals.data(), vals.size());
    } else {
      reg.slide(vals[0]);
    }
    deque_ops += ops::OpCounter::combines - before;
    if (bulk) {
      twin.BulkSlide(vals.data(), vals.size());
    } else {
      twin.slide(vals[0]);
    }
    for (const Value& v : vals) naive.slide(v);
    const uint64_t m = vals.size();
    if (m >= window) {
      model.clear();
      for (uint64_t k = m - window; k < m; ++k) model_push(vals[k], n + k);
    } else {
      while (!model.empty() && model.front().first + window < n + m) {
        model.pop_front();
      }
      for (uint64_t k = 0; k < m; ++k) model_push(vals[k], n + k);
    }
    n += m;
  };
  std::vector<typename Op::result_type> out;
  const auto check = [&] {
    out.clear();
    reg.query_multi(all_desc, out);
    twin.query_multi(all_desc, out);
    ASSERT_EQ(out.size(), 2 * window);
    for (std::size_t i = 0; i < window; ++i) {
      ASSERT_EQ(out[i], naive.query(all_desc[i]))
          << "registered, range=" << all_desc[i] << " n=" << n;
      ASSERT_EQ(out[window + i], naive.query(all_desc[i]))
          << "unregistered, range=" << all_desc[i] << " n=" << n;
      ASSERT_EQ(reg.query(all_desc[i]), naive.query(all_desc[i]))
          << "query(range), range=" << all_desc[i] << " n=" << n;
    }
    ASSERT_EQ(bytes(reg), bytes(twin)) << "n=" << n;
  };

  std::vector<Segment> script;
  int64_t base = 1'000'000;
  for (const int64_t pops : {7, 8, 9}) {
    Segment run{{}, 0};
    for (int64_t i = 0; i < pops + 3; ++i) run.values.push_back(base - 10 * i);
    const int64_t x = run.values[3] + 5;  // absorbs the newest `pops` nodes
    script.push_back(std::move(run));
    script.push_back(Segment{{x}, 0});
    base -= 100'000;
  }
  Segment sawtooth{{}, 7};
  for (std::size_t i = 0; i < 3 * window; ++i) {
    sawtooth.values.push_back(base - 10 * static_cast<int64_t>(i / 5) +
                              static_cast<int64_t>(i % 5));
  }
  script.push_back(std::move(sawtooth));
  Segment fill{{}, 0};
  for (std::size_t i = 0; i < window + 3; ++i) {
    fill.values.push_back(base - 100'000 - static_cast<int64_t>(i));
  }
  script.push_back(std::move(fill));
  script.push_back(Segment{{2'000'000}, 1});
  Segment noise{{}, 5};
  util::SplitMix64 rng(0x5c1 + window);
  for (std::size_t i = 0; i < 2 * window + 20; ++i) {
    noise.values.push_back(GenInt(Shape::kRandom, i, rng));
  }
  script.push_back(std::move(noise));

  if constexpr (kMinDirection<Op>) {
    for (Segment& seg : script) {
      for (int64_t& v : seg.values) v = -v;
    }
  }

  const std::size_t bytes_before = reg.memory_bytes();
  std::vector<Value> vals;
  for (const Segment& seg : script) {
    const std::size_t chunk =
        !bulk ? 1 : seg.chunk == 0 ? seg.values.size() : seg.chunk;
    for (std::size_t i = 0; i < seg.values.size(); i += chunk) {
      vals.clear();
      for (std::size_t k = i; k < std::min(i + chunk, seg.values.size());
           ++k) {
        vals.push_back(LiftInt<Op>(seg.values[k]));
      }
      feed(vals);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (window > 64) {
    EXPECT_GT(reg.memory_bytes(), bytes_before) << "the ring never grew";
  }
  if constexpr (requires { typename Op::counter_type; }) {
    EXPECT_EQ(deque_ops, model_ops) << "window=" << window;
  }
}

// The scripted inputs run at window() + the shape's index, so the four
// shape instances of each grid window cover every window from 1 to 12 and
// windows above 64, whose rings grow from 64 slots.
template <typename Op>
void RunScriptedTwins(std::size_t window, Shape shape) {
  const std::size_t w = window + static_cast<std::size_t>(shape);
  RunScriptedTwin<Op>(w, false);
  if (::testing::Test::HasFatalFailure()) return;
  RunScriptedTwin<Op>(w, true);
}

// Both AppendBatch branches and three op shapes: the survivor-mask
// staircase (MaxInt, and MinInt/Min for the other direction), and the
// per-element stack loop for a total order with no mask kernel (ArgMax)
// and for an op that forwards no kAbsorbsTotal (CountingOp). The mask ops
// take the branch-free tail prune; ArgMax and CountingOp the exact loop.
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredMask) {
  RunRegisteredTwin<ops::MaxInt>(window(), shape());
  RunScriptedTwins<ops::MaxInt>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredMaskMin) {
  RunRegisteredTwin<ops::MinInt>(window(), shape());
  RunScriptedTwins<ops::MinInt>(window(), shape());
  RunRegisteredTwin<ops::Min>(window(), shape());
  RunScriptedTwins<ops::Min>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredStaircase) {
  RunRegisteredTwin<ops::ArgMax>(window(), shape());
  RunScriptedTwins<ops::ArgMax>(window(), shape());
}
TEST_P(WindowSweep, SlickDequeNonInvRegisteredMatchesUnregisteredPerElement) {
  static_assert(!ops::TotalOrderSelectiveOp<ops::CountingOp<ops::MaxInt>>);
  RunRegisteredTwin<ops::CountingOp<ops::MaxInt>>(window(), shape());
  RunScriptedTwins<ops::CountingOp<ops::MaxInt>>(window(), shape());
  RunScriptedTwins<ops::CountingOp<ops::Max>>(window(), shape());
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

// --------------------- SlickDeque (Inv) answers-map index ----------------
//
// SlickDequeInv finds a range's answer through a hashed index. For every
// r in [1, n], has_range(r) must agree with a sorted-vector reference and
// query(r) with a reference window, after slides, batch slides, in-window
// updates and a checkpoint round trip.

struct InvIndexCase {
  const char* name;
  std::size_t window;
  std::vector<std::size_t> ranges;  // empty: the default (full window only)
};

void PrintTo(const InvIndexCase& c, std::ostream* os) { *os << c.name; }

/// Reference window: a ring of the last n partials, 0 = the newest.
class InvReference {
 public:
  explicit InvReference(std::size_t n) : ring_(n, 0) {}
  void slide(int64_t v) {
    ring_[pos_] = v;
    pos_ = pos_ + 1 == ring_.size() ? 0 : pos_ + 1;
  }
  int64_t& at_age(std::size_t age) {
    return ring_[(pos_ + ring_.size() - 1 - age) % ring_.size()];
  }
  /// sums[r] = sum of the r newest partials, r in [0, n].
  std::vector<int64_t> SuffixSums() {
    std::vector<int64_t> sums(ring_.size() + 1, 0);
    for (std::size_t r = 1; r <= ring_.size(); ++r) {
      sums[r] = sums[r - 1] + at_age(r - 1);
    }
    return sums;
  }

 private:
  std::vector<int64_t> ring_;
  std::size_t pos_ = 0;
};

void ExpectIndexMatches(const SlickDequeInv<ops::SumInt>& agg,
                        const std::vector<std::size_t>& sorted,
                        InvReference& ref, const char* phase) {
  const std::vector<int64_t> sums = ref.SuffixSums();
  for (std::size_t r = 1; r < sums.size(); ++r) {
    const bool registered = std::binary_search(sorted.begin(), sorted.end(), r);
    ASSERT_EQ(agg.has_range(r), registered) << phase << " r=" << r;
    if (registered) {
      ASSERT_EQ(agg.query(r), sums[r]) << phase << " r=" << r;
    }
  }
}

class InvIndexTest : public ::testing::TestWithParam<InvIndexCase> {};

TEST_P(InvIndexTest, AgreesWithSortedReference) {
  const InvIndexCase& c = GetParam();
  const std::size_t n = c.window;
  std::vector<std::size_t> sorted =
      c.ranges.empty() ? std::vector<std::size_t>{n} : c.ranges;
  std::sort(sorted.begin(), sorted.end());
  SlickDequeInv<ops::SumInt> agg(n, c.ranges);
  InvReference ref(n);
  util::SplitMix64 rng(n);
  auto next = [&rng] { return static_cast<int64_t>(rng.NextBounded(1000)); };

  ExpectIndexMatches(agg, sorted, ref, "fresh");
  for (std::size_t i = 0; i < n + 17; ++i) {
    const int64_t v = next();
    agg.slide(v);
    ref.slide(v);
  }
  ExpectIndexMatches(agg, sorted, ref, "slide");

  // A batch shorter than the window, then one that replaces all of it.
  for (const std::size_t len : {n / 3 + 1, n + 3}) {
    std::vector<int64_t> batch(len);
    for (int64_t& v : batch) v = next();
    agg.BulkSlide(batch.data(), batch.size());
    for (const int64_t v : batch) ref.slide(v);
    ExpectIndexMatches(agg, sorted, ref, "BulkSlide");
  }

  for (const std::size_t age : {std::size_t{0}, n / 2, n - 1}) {
    const int64_t v = next();
    agg.UpdateAt(age, v);
    ref.at_age(age) = v;
  }
  ExpectIndexMatches(agg, sorted, ref, "UpdateAt");

  std::stringstream ss;
  agg.SaveState(ss);
  SlickDequeInv<ops::SumInt> restored(1);
  ASSERT_TRUE(restored.LoadState(ss));
  ExpectIndexMatches(restored, sorted, ref, "LoadState");
  for (int i = 0; i < 5; ++i) {
    const int64_t v = next();
    restored.slide(v);
    ref.slide(v);
  }
  ExpectIndexMatches(restored, sorted, ref, "slide after LoadState");
}

std::vector<std::size_t> RangesFromOneTo(std::size_t n) {
  std::vector<std::size_t> r(n);
  std::iota(r.begin(), r.end(), std::size_t{1});
  return r;
}

std::vector<std::size_t> MultiplesOf(std::size_t step, std::size_t n) {
  std::vector<std::size_t> r;
  for (std::size_t x = step; x <= n; x += step) r.push_back(x);
  return r;
}

INSTANTIATE_TEST_SUITE_P(
    RangeSets, InvIndexTest,
    ::testing::Values(
        InvIndexCase{"SingleRange", 64, {}},
        // The distinct ranges (in partials) of the eight-ACQ Pairs plan
        // (100,1) (1000,10) (6000,100) (30000,100) (90000,1000)
        // (360000,1000) (6000,1) (30000,10): one partial per tuple.
        InvIndexCase{"AcqSumPlan",
                     360000,
                     {6000, 100, 360000, 1000, 90000, 30000}},
        // Multiples of 2^12 share their low 12 bits.
        InvIndexCase{"SharedLowBits", 1 << 16, MultiplesOf(1 << 12, 1 << 16)},
        InvIndexCase{"EveryRange", 300, RangesFromOneTo(300)}),
    [](const auto& tpi) { return std::string(tpi.param.name); });

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

// ----------------- SlickDeque (Non-Inv): the staged registered face -------
//
// With a survivor kernel and a smallest registered range above 2, the
// registered face stages up to min(64, window, smallest range - 1) slides
// and admits them in one batch. Every answer, node count and checkpoint
// must still equal per-slide admission's: the unregistered twin's. Doubles
// compare bit for bit, so NaN and the sign of zero count.

template <typename T>
::testing::AssertionResult SameBits(const T& got, const T& want) {
  bool same;
  if constexpr (std::is_same_v<T, double>) {
    same = std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want);
  } else {
    same = got == want;
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << got << " vs " << want;
}

template <typename Agg>
std::string NonInvBytes(const Agg& agg) {
  std::ostringstream os;
  agg.SaveState(os);
  return os.str();
}

// Compares every range, query() and query_multi over all ranges. Reads only
// the answer surface, so a stage stays staged.
template <typename Agg>
void ExpectSameAnswers(const Agg& reg, const Agg& twin, const char* where) {
  const std::size_t w = twin.window_size();
  std::vector<std::size_t> all_desc;
  for (std::size_t r = w; r >= 1; --r) all_desc.push_back(r);
  std::vector<typename Agg::result_type> out;
  reg.query_multi(all_desc, out);
  ASSERT_EQ(out.size(), w);
  for (std::size_t i = 0; i < w; ++i) {
    const auto want = twin.query(all_desc[i]);
    ASSERT_TRUE(SameBits(reg.query(all_desc[i]), want))
        << where << ", range " << all_desc[i];
    ASSERT_TRUE(SameBits(out[i], want))
        << where << ", query_multi range " << all_desc[i];
  }
  ASSERT_TRUE(SameBits(reg.query(), twin.query())) << where << ", query()";
}

enum class Payload { kNaN, kSignedZero, kTies, kInt64 };

const char* PayloadName(Payload p) {
  switch (p) {
    case Payload::kNaN:
      return "NaN";
    case Payload::kSignedZero:
      return "SignedZero";
    case Payload::kTies:
      return "Ties";
    case Payload::kInt64:
      return "Int64";
  }
  return "";
}

struct StageCase {
  std::size_t window;
  std::size_t min_range;
  Payload payload;
};

std::vector<StageCase> StageCases() {
  std::vector<StageCase> cases;
  for (std::size_t w : {1, 2, 63, 64, 65, 128, 3000}) {
    for (std::size_t r : {1, 64, 65, 100}) {
      if (r > w) continue;
      for (Payload p : {Payload::kNaN, Payload::kSignedZero, Payload::kTies,
                        Payload::kInt64}) {
        cases.push_back(StageCase{w, r, p});
      }
    }
  }
  return cases;
}

// Step i's value: runs of 97 steps alternate random, descending, random
// and ascending, so the deque both fills (either direction fills it for
// one of Max/Min) and empties; each payload picks the random values and
// its special values.
double StageValue(Payload p, std::size_t window, std::size_t i,
                  util::SplitMix64& rng) {
  const auto run = static_cast<double>(i % 97);
  switch ((i / 97) % 4) {
    case 1:
      return 500.0 - run;
    case 3:
      return -500.0 + run;
    default:
      break;
  }
  switch (p) {
    case Payload::kNaN:
      // A NaN once per window + 37 steps (so each expires before the
      // next), and now and then at random.
      if (i % (window + 37) == 5 || rng.NextBounded(211) == 0) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return static_cast<double>(rng.NextBounded(101)) - 50.0;
    case Payload::kSignedZero: {
      constexpr double kVals[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0};
      return kVals[rng.NextBounded(6)];
    }
    case Payload::kTies:
      return static_cast<double>(rng.NextBounded(3));
    case Payload::kInt64:
      break;
  }
  return static_cast<double>(rng.NextBounded(2001)) - 1000.0;
}

template <typename Op>
typename Op::value_type StageLift(double x, std::size_t i,
                                  util::SplitMix64& rng) {
  if constexpr (std::is_same_v<typename Op::value_type, int64_t>) {
    // int64 payloads also carry both extremes, one of them ⊕'s identity.
    if (i % 89 == 3) return std::numeric_limits<int64_t>::min();
    if (i % 89 == 40) return std::numeric_limits<int64_t>::max();
    (void)rng;
    return static_cast<int64_t>(x);
  } else {
    return x;
  }
}

// Feeds the registered instance (ranges: the smallest, two above it and
// the window) and its unregistered twin the same slides, with a short
// BulkSlide now and then, one batch of window + 2, and a rewind of both to
// an earlier checkpoint. After every call it compares each registered
// range, query(), query_multi over the registered ranges plus unregistered
// ones (inside the stage too), then the checkpoint bytes and node count of
// a copy (the copy folds its stage, the instance keeps its own staged).
template <typename Op>
void RunStagedTwin(const StageCase& c) {
  using Agg = SlickDequeNonInv<Op>;
  using Value = typename Op::value_type;
  const std::size_t w = c.window;
  std::vector<std::size_t> registered{c.min_range,
                                      std::min(w, c.min_range + 7),
                                      (c.min_range + w) / 2, w};
  Agg reg(w, registered);
  Agg twin(w);
  util::SplitMix64 rng(0x57a6e + w * 31 + c.min_range);
  const std::size_t steps = 3 * w + 200;
  std::string snapshot;
  std::vector<Value> batch;
  std::vector<std::size_t> ranges_desc;
  std::vector<typename Op::result_type> out;
  for (std::size_t i = 0; i < steps; ++i) {
    batch.clear();
    std::size_t b = 1;
    if (i % 53 == 17) b = 1 + i % 9;
    if (i == 2 * steps / 3) b = w + 2;
    for (std::size_t k = 0; k < b; ++k) {
      batch.push_back(
          StageLift<Op>(StageValue(c.payload, w, i + k, rng), i + k, rng));
    }
    if (b == 1) {
      reg.slide(batch[0]);
      twin.slide(batch[0]);
    } else {
      reg.BulkSlide(batch.data(), b);
      twin.BulkSlide(batch.data(), b);
    }
    if (i == steps / 3) snapshot = NonInvBytes(twin);
    if (i == steps / 2) {
      std::istringstream reg_is(snapshot), twin_is(snapshot);
      ASSERT_TRUE(reg.LoadState(reg_is));
      ASSERT_TRUE(twin.LoadState(twin_is));
    }
    for (std::size_t r : registered) {
      ASSERT_TRUE(SameBits(reg.query(r), twin.query(r)))
          << "step " << i << ", registered range " << r;
    }
    ASSERT_TRUE(SameBits(reg.query(), twin.query())) << "step " << i;
    ranges_desc = registered;
    for (std::size_t r : {std::size_t{1}, std::size_t{2}, c.min_range - 1,
                          1 + rng.NextBounded(w), 1 + rng.NextBounded(w)}) {
      if (r >= 1 && r <= w) ranges_desc.push_back(r);
    }
    std::sort(ranges_desc.rbegin(), ranges_desc.rend());
    out.clear();
    reg.query_multi(ranges_desc, out);
    ASSERT_EQ(out.size(), ranges_desc.size());
    for (std::size_t k = 0; k < ranges_desc.size(); ++k) {
      ASSERT_TRUE(SameBits(out[k], twin.query(ranges_desc[k])))
          << "step " << i << ", query_multi range " << ranges_desc[k];
    }
    const Agg copy = reg;
    ASSERT_EQ(NonInvBytes(copy), NonInvBytes(twin)) << "step " << i;
    ASSERT_EQ(copy.node_count(), twin.node_count()) << "step " << i;
  }
}

class NonInvStageSweep : public ::testing::TestWithParam<StageCase> {};

TEST_P(NonInvStageSweep, RegisteredMatchesUnregistered) {
  const StageCase& c = GetParam();
  if (c.payload == Payload::kInt64) {
    RunStagedTwin<ops::MaxInt>(c);
    if (HasFatalFailure()) return;
    RunStagedTwin<ops::MinInt>(c);
  } else {
    RunStagedTwin<ops::Max>(c);
    if (HasFatalFailure()) return;
    RunStagedTwin<ops::Min>(c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NonInvStageSweep, ::testing::ValuesIn(StageCases()),
    [](const auto& tpi) {
      std::string name = "w";
      name += std::to_string(tpi.param.window);
      name += "_minrange";
      name += std::to_string(tpi.param.min_range);
      name += "_";
      name += PayloadName(tpi.param.payload);
      return name;
    });

// A NaN breaks the monotone run the stage's answer rule relies on: after
// [3, NaN], per-slide admission keeps 3 at the head when 5 arrives (nothing
// absorbs NaN, so the prune stops there), while the stage's aggregate 5
// absorbs 3. The NaN is admitted per slide, and so is every partial until
// it expires.
TEST(FixedWindowEdgeTest, SlickDequeNonInvNanHoldsStagingOff) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SlickDequeNonInv<ops::Max> reg(200, {100, 200});
  SlickDequeNonInv<ops::Max> twin(200);
  for (double v : {3.0, nan, 5.0}) {
    reg.slide(v);
    twin.slide(v);
  }
  EXPECT_EQ(reg.query(), 3.0);
  EXPECT_EQ(reg.query(100), 3.0);
  ExpectSameAnswers(reg, twin, "after [3, NaN, 5]");
  util::SplitMix64 rng(0x7a9);
  for (std::size_t i = 0; i < 600; ++i) {
    const double v = static_cast<double>(rng.NextBounded(50));
    reg.slide(v);
    twin.slide(v);
    ASSERT_TRUE(SameBits(reg.query(100), twin.query(100))) << "slide " << i;
    ASSERT_TRUE(SameBits(reg.query(), twin.query())) << "slide " << i;
  }
  ExpectSameAnswers(reg, twin, "after the NaN expired");
}

// The observers fold a half-full stage; the instance answers on, and its
// bytes, node count and answers stay the twin's. Descending input keeps
// every staged partial a node.
class NonInvMidStageTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWindow = 256;
  void Slide(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next_) {
      const int64_t v = next_ % 7 == 3 ? int64_t{900} - next_ % 5
                                       : int64_t{1'000'000} - next_;
      reg_.slide(v);
      twin_.slide(v);
    }
  }
  SlickDequeNonInv<ops::MaxInt> reg_{kWindow, {100, 130, kWindow}};
  SlickDequeNonInv<ops::MaxInt> twin_{kWindow};
  int64_t next_ = 0;
};

TEST_F(NonInvMidStageTest, SaveState) {
  Slide(300 + 40);
  ExpectSameAnswers(reg_, twin_, "staged");
  EXPECT_EQ(NonInvBytes(reg_), NonInvBytes(twin_));
  ExpectSameAnswers(reg_, twin_, "after SaveState");
  Slide(50);
  ExpectSameAnswers(reg_, twin_, "staged again");
  EXPECT_EQ(NonInvBytes(reg_), NonInvBytes(twin_));
}

TEST_F(NonInvMidStageTest, LoadState) {
  Slide(200);
  const std::string snapshot = NonInvBytes(twin_);
  Slide(45);  // staged in reg_
  std::istringstream reg_is(snapshot), twin_is(snapshot);
  ASSERT_TRUE(reg_.LoadState(reg_is));
  ASSERT_TRUE(twin_.LoadState(twin_is));
  ExpectSameAnswers(reg_, twin_, "after LoadState");
  for (int k = 0; k < 5; ++k) {
    Slide(29);
    ExpectSameAnswers(reg_, twin_, "sliding on");
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(NonInvBytes(reg_), NonInvBytes(twin_));
}

TEST_F(NonInvMidStageTest, BulkSlide) {
  std::vector<int64_t> batch;
  for (std::size_t n : {std::size_t{10}, std::size_t{1}, kWindow + 5}) {
    Slide(37);
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) batch.push_back(5000 - next_++ % 13);
    reg_.BulkSlide(batch.data(), batch.size());
    twin_.BulkSlide(batch.data(), batch.size());
    ExpectSameAnswers(reg_, twin_, "after BulkSlide");
    if (HasFatalFailure()) return;
    Slide(21);
    ExpectSameAnswers(reg_, twin_, "sliding on");
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(NonInvBytes(reg_), NonInvBytes(twin_));
}

TEST_F(NonInvMidStageTest, NodeCount) {
  for (std::size_t n : {std::size_t{50}, std::size_t{63}, std::size_t{300}}) {
    Slide(n);
    ExpectSameAnswers(reg_, twin_, "staged");
    ASSERT_EQ(reg_.node_count(), twin_.node_count()) << "after " << next_;
    ExpectSameAnswers(reg_, twin_, "after node_count()");
  }
  EXPECT_EQ(NonInvBytes(reg_), NonInvBytes(twin_));
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
