// End-to-end validation of the ACQ engine: raw tuples -> shared plan ->
// partial aggregation -> final aggregation -> per-query answers, checked
// against a tuple-level brute-force model for every final aggregator.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/windowed.h"
#include "engine/acq_engine.h"
#include "ops/ops.h"
#include "util/rng.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"

namespace slick::engine {
namespace {

using plan::Pat;
using plan::QuerySpec;

// Tuple-level model: every query q answers at tuple counts divisible by its
// slide with the fold of the last min(range, seen) raw values (identity for
// the not-yet-seen prefix, matching the engine's warm-up semantics).
template <typename Op>
class TupleModel {
 public:
  explicit TupleModel(std::vector<QuerySpec> queries)
      : queries_(std::move(queries)) {}

  /// Feeds a value; returns (query_index, result) pairs due at this tuple.
  std::vector<std::pair<uint32_t, typename Op::result_type>> Push(
      const typename Op::input_type& x) {
    history_.push_back(Op::lift(x));
    ++count_;
    std::vector<std::pair<uint32_t, typename Op::result_type>> due;
    for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
      if (count_ % queries_[qi].slide != 0) continue;
      const uint64_t r = std::min<uint64_t>(queries_[qi].range, count_);
      auto acc = Op::identity();
      for (std::size_t i = history_.size() - r; i < history_.size(); ++i) {
        acc = Op::combine(acc, history_[i]);
      }
      due.emplace_back(qi, Op::lower(acc));
    }
    return due;
  }

 private:
  std::vector<QuerySpec> queries_;
  std::deque<typename Op::value_type> history_;
  uint64_t count_ = 0;
};

template <typename Op>
typename Op::input_type MakeInput(int64_t v) {
  if constexpr (std::is_same_v<typename Op::input_type, std::string>) {
    return std::string(1, static_cast<char>('a' + ((v % 26) + 26) % 26));
  } else {
    return static_cast<typename Op::input_type>(v);
  }
}

template <typename Agg>
void RunEngineOracle(std::vector<QuerySpec> queries, Pat pat,
                     std::size_t tuples, uint64_t seed) {
  using Op = typename Agg::op_type;
  AcqEngine<Agg> eng(queries, pat);
  TupleModel<Op> model(queries);
  util::SplitMix64 rng(seed);

  std::vector<std::pair<uint32_t, typename Op::result_type>> got;
  for (std::size_t i = 0; i < tuples; ++i) {
    const auto x =
        MakeInput<Op>(static_cast<int64_t>(rng.NextBounded(2001)) - 1000);
    got.clear();
    eng.Push(x, [&](uint32_t q, const typename Op::result_type& res) {
      got.emplace_back(q, res);
    });
    auto want = model.Push(x);
    // The engine reports in its plan step's order; the model reports in
    // query order. Compare order-insensitively.
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::sort(want.begin(), want.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(got.size(), want.size()) << "tuple " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].first, want[k].first) << "tuple " << i;
      ASSERT_EQ(got[k].second, want[k].second)
          << "tuple " << i << " query " << want[k].first;
    }
  }
}

// The workloads. Query sets are chosen so every plan stays executable under
// Pairs and exercises fragments (range % slide != 0), heterogeneous slides,
// equal-range sharing and multi-composite wrap-around.
std::vector<QuerySpec> SingleSlideOne() { return {{64, 1}}; }
std::vector<QuerySpec> MultiSlideOne() {
  return {{64, 1}, {17, 1}, {5, 1}, {1, 1}};
}
std::vector<QuerySpec> Fragmented() { return {{7, 3}}; }
std::vector<QuerySpec> PaperExampleOne() { return {{6, 2}, {8, 4}}; }
std::vector<QuerySpec> Heterogeneous() {
  return {{12, 2}, {7, 3}, {30, 5}, {9, 2}};
}
// Every range at least 65 partials long, so SlickDeque (Non-Inv)'s
// registered face stages 64 slides at a time: one partial per tuple, and
// two-tuple partials.
std::vector<QuerySpec> LongRangesSlideOne() {
  return {{100, 1}, {65, 1}, {1000, 10}};
}
std::vector<QuerySpec> LongRangesSlideTwo() {
  return {{130, 2}, {600, 2}, {2000, 4}, {150, 2}};
}

TEST(AcqEngineTest, NaiveAllWorkloads) {
  using Agg = window::NaiveWindow<ops::SumInt>;
  RunEngineOracle<Agg>(SingleSlideOne(), Pat::kPairs, 500, 1);
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 2);
  RunEngineOracle<Agg>(Fragmented(), Pat::kPairs, 500, 3);
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPairs, 500, 4);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1000, 5);
}

TEST(AcqEngineTest, FlatFatAllWorkloads) {
  using Agg = window::FlatFat<ops::SumInt>;
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 6);
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPairs, 500, 7);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1000, 8);
}

TEST(AcqEngineTest, BIntAllWorkloads) {
  using Agg = window::BInt<ops::SumInt>;
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 9);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1000, 10);
}

TEST(AcqEngineTest, FlatFitAllWorkloads) {
  using Agg = window::FlatFit<ops::SumInt>;
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 11);
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPairs, 500, 12);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1000, 13);
}

TEST(AcqEngineTest, SlickDequeInvAllWorkloads) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  RunEngineOracle<Agg>(SingleSlideOne(), Pat::kPairs, 500, 14);
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 15);
  RunEngineOracle<Agg>(Fragmented(), Pat::kPairs, 500, 16);
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPairs, 500, 17);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1500, 18);
}

TEST(AcqEngineTest, SlickDequeNonInvAllWorkloads) {
  using Agg = core::SlickDequeNonInv<ops::MaxInt>;
  RunEngineOracle<Agg>(SingleSlideOne(), Pat::kPairs, 500, 19);
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 500, 20);
  RunEngineOracle<Agg>(Fragmented(), Pat::kPairs, 500, 21);
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPairs, 500, 22);
  RunEngineOracle<Agg>(Heterogeneous(), Pat::kPairs, 1500, 23);
}

TEST(AcqEngineTest, SlickDequeNonInvStagedMax) {
  using Agg = core::SlickDequeNonInv<ops::Max>;
  RunEngineOracle<Agg>(LongRangesSlideOne(), Pat::kPairs, 4000, 29);
  RunEngineOracle<Agg>(LongRangesSlideTwo(), Pat::kPairs, 5000, 30);
}

TEST(AcqEngineTest, SlickDequeNonInvStagedMin) {
  using Agg = core::SlickDequeNonInv<ops::Min>;
  RunEngineOracle<Agg>(LongRangesSlideOne(), Pat::kPairs, 4000, 31);
  RunEngineOracle<Agg>(LongRangesSlideTwo(), Pat::kPairs, 5000, 32);
}

TEST(AcqEngineTest, WindowedDabaSingleQuery) {
  using Agg = core::Windowed<window::Daba<ops::SumInt>>;
  RunEngineOracle<Agg>(SingleSlideOne(), Pat::kPairs, 500, 24);
  RunEngineOracle<Agg>(Fragmented(), Pat::kPairs, 500, 25);
}

TEST(AcqEngineTest, ConcatThroughEngineKeepsOrder) {
  using Agg = window::FlatFat<ops::Concat>;
  RunEngineOracle<Agg>(MultiSlideOne(), Pat::kPairs, 300, 26);
}

TEST(AcqEngineTest, PanesPatWorksToo) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  RunEngineOracle<Agg>(PaperExampleOne(), Pat::kPanes, 500, 27);
  RunEngineOracle<Agg>(Fragmented(), Pat::kPanes, 500, 28);
}

TEST(AcqEngineTest, CountersAdvance) {
  AcqEngine<core::SlickDequeInv<ops::SumInt>> eng({{4, 2}}, Pat::kPairs);
  int answers = 0;
  for (int i = 0; i < 10; ++i) {
    eng.Push(1, [&](uint32_t, long) { ++answers; });
  }
  EXPECT_EQ(eng.tuples_processed(), 10u);
  EXPECT_EQ(eng.answers_produced(), 5u);  // one answer per slide of 2
  EXPECT_EQ(answers, 5);
  EXPECT_GT(eng.memory_bytes(), 0u);
}

TEST(AcqEngineTest, RejectsNonExecutablePlan) {
  using Agg = window::NaiveWindow<ops::SumInt>;
  EXPECT_DEATH((AcqEngine<Agg>({{7, 3}}, Pat::kCutty)), "mid-partial");
}

}  // namespace
}  // namespace slick::engine
