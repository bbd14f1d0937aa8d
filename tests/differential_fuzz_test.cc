// Differential fuzzing: randomized configurations (window sizes, query
// sets, PATs, input shapes) drive every algorithm in lockstep; any
// disagreement is a bug in exactly one of them. Seeds are fixed, so
// failures reproduce; crank --gtest_repeat, the kTrials constants, or the
// SLICK_FUZZ_TRIALS environment variable (nightly CI sets it) for longer
// campaigns.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/slick_deque_inv.h"
#include "core/slick_deque_noninv.h"
#include "core/subtract_on_evict.h"
#include "core/windowed.h"
#include "engine/acq_engine.h"
#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/simd_dispatch.h"
#include "ops/string_ops.h"
#include "runtime/parallel_engine.h"
#include "telemetry/snapshot.h"
#include "util/rng.h"
#include "window/aggregator.h"
#include "window/b_int.h"
#include "window/daba.h"
#include "window/flat_fat.h"
#include "window/flat_fit.h"
#include "window/naive.h"
#include "window/two_stacks.h"

namespace slick {
namespace {

using plan::Pat;
using plan::QuerySpec;

constexpr int kConfigTrials = 40;

/// Trial count for a fuzz campaign: `fallback` under the default budget,
/// overridden by SLICK_FUZZ_TRIALS (the CI nightly job sets it much
/// higher; locally export it for soak runs).
int FuzzTrials(int fallback) {
  if (const char* env = std::getenv("SLICK_FUZZ_TRIALS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return fallback;
}

int64_t ShapedValue(util::SplitMix64& rng, int shape, int step) {
  switch (shape) {
    case 0:
      return static_cast<int64_t>(rng.NextBounded(1 << 16)) - (1 << 15);
    case 1:
      return step;
    case 2:
      return -step;
    case 3:
      return static_cast<int64_t>(rng.NextBounded(2));
    default:
      return static_cast<int64_t>(rng.NextBounded(1u << (1 + step % 20)));
  }
}

TEST(DifferentialFuzzTest, AllFixedWindowAlgorithmsAgreeOnRandomConfigs) {
  util::SplitMix64 config_rng(0xF00D);
  const int trials = FuzzTrials(kConfigTrials);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t window = 1 + config_rng.NextBounded(140);
    const int shape = static_cast<int>(config_rng.NextBounded(5));
    const uint64_t seed = config_rng.NextU64();

    window::NaiveWindow<ops::SumInt> naive_sum(window);
    window::FlatFat<ops::SumInt> fat_sum(window);
    window::BInt<ops::SumInt> bint_sum(window);
    window::FlatFit<ops::SumInt> fit_sum(window);
    core::Windowed<window::TwoStacks<ops::SumInt>> two_sum(window);
    core::Windowed<window::Daba<ops::SumInt>> daba_sum(window);
    core::SlickDequeInv<ops::SumInt> slick_sum(window);

    window::NaiveWindow<ops::MaxInt> naive_max(window);
    core::Windowed<window::Daba<ops::MaxInt>> daba_max(window);
    core::SlickDequeNonInv<ops::MaxInt> slick_max(window);

    util::SplitMix64 rng(seed);
    const int steps = static_cast<int>(2 * window + 30);
    for (int step = 0; step < steps; ++step) {
      const int64_t v = ShapedValue(rng, shape, step);
      naive_sum.slide(v);
      fat_sum.slide(v);
      bint_sum.slide(v);
      fit_sum.slide(v);
      two_sum.slide(v);
      daba_sum.slide(v);
      slick_sum.slide(v);
      naive_max.slide(v);
      daba_max.slide(v);
      slick_max.slide(v);

      const int64_t expect_sum = naive_sum.query();
      ASSERT_EQ(fat_sum.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(bint_sum.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(fit_sum.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(two_sum.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(daba_sum.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(slick_sum.query(), expect_sum) << "trial " << trial;

      const int64_t expect_max = naive_max.query();
      ASSERT_EQ(daba_max.query(), expect_max) << "trial " << trial;
      ASSERT_EQ(slick_max.query(), expect_max) << "trial " << trial;

      // One random sub-range per step across the multi-query-capable four.
      const std::size_t r = 1 + rng.NextBounded(window);
      const int64_t expect_range = naive_sum.query(r);
      ASSERT_EQ(fat_sum.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(bint_sum.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(fit_sum.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(naive_max.query(r), slick_max.query(r)) << "trial " << trial;
    }
  }
}

TEST(DifferentialFuzzTest, EnginesAgreeOnRandomQuerySets) {
  util::SplitMix64 config_rng(0xBEEF);
  const int trials = FuzzTrials(kConfigTrials);
  for (int trial = 0; trial < trials; ++trial) {
    // 1-4 random queries with slides 1..8, ranges 1..80.
    const std::size_t q = 1 + config_rng.NextBounded(4);
    std::vector<QuerySpec> queries;
    for (std::size_t i = 0; i < q; ++i) {
      queries.push_back({1 + config_rng.NextBounded(80),
                         1 + config_rng.NextBounded(8)});
    }
    const Pat pat = config_rng.NextBounded(2) == 0 ? Pat::kPairs : Pat::kPanes;
    const uint64_t seed = config_rng.NextU64();

    engine::AcqEngine<core::SlickDequeInv<ops::SumInt>> slick(queries, pat);
    engine::AcqEngine<window::NaiveWindow<ops::SumInt>> naive(queries, pat);
    engine::AcqEngine<window::FlatFit<ops::SumInt>> fit(queries, pat);

    util::SplitMix64 rng(seed);
    std::vector<std::pair<uint32_t, int64_t>> a, b, c;
    for (int t = 0; t < 400; ++t) {
      const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
      a.clear();
      b.clear();
      c.clear();
      auto collect = [](auto& out) {
        return [&out](uint32_t qi, int64_t res) { out.emplace_back(qi, res); };
      };
      slick.Push(v, collect(a));
      naive.Push(v, collect(b));
      fit.Push(v, collect(c));
      ASSERT_EQ(a, b) << "trial " << trial << " tuple " << t;
      ASSERT_EQ(a, c) << "trial " << trial << " tuple " << t;
    }
  }
}

// The Max twin of the test above: SlickDeque (Non-Inv) answers through its
// per-range cursors (AcqEngine registers every distinct range) against the
// brute-force window. Long descending runs make deques deep and tail pops
// cross the cursors; few distinct values make ties.
TEST(DifferentialFuzzTest, MaxEnginesAgreeOnRandomQuerySets) {
  using Slick = core::SlickDequeNonInv<ops::MaxInt>;
  static_assert(std::is_constructible_v<Slick, std::size_t,
                                        std::vector<std::size_t>>,
                "AcqEngine registers ranges through this constructor");
  util::SplitMix64 config_rng(0xCAFE);
  const int trials = FuzzTrials(kConfigTrials);
  for (int trial = 0; trial < trials; ++trial) {
    // 1-6 random queries with slides 1..8, ranges 1..80.
    const std::size_t q = 1 + config_rng.NextBounded(6);
    std::vector<QuerySpec> queries;
    for (std::size_t i = 0; i < q; ++i) {
      queries.push_back({1 + config_rng.NextBounded(80),
                         1 + config_rng.NextBounded(8)});
    }
    const Pat pat = config_rng.NextBounded(2) == 0 ? Pat::kPairs : Pat::kPanes;
    const int shape = static_cast<int>(config_rng.NextBounded(3));
    const uint64_t seed = config_rng.NextU64();

    engine::AcqEngine<Slick> slick(queries, pat);
    engine::AcqEngine<window::NaiveWindow<ops::MaxInt>> naive(queries, pat);

    util::SplitMix64 rng(seed);
    std::vector<std::pair<uint32_t, int64_t>> a, b;
    auto collect = [](auto& out) {
      return [&out](uint32_t qi, int64_t res) { out.emplace_back(qi, res); };
    };
    int64_t run_value = 0;
    for (int t = 0; t < 600; ++t) {
      int64_t v = 0;
      switch (shape) {
        case 0:  // uniform
          v = static_cast<int64_t>(rng.NextBounded(1000));
          break;
        case 1:  // descending runs of up to 300, each restarting high
          if (rng.NextBounded(300) == 0 || run_value <= 0) {
            run_value = 1000 + static_cast<int64_t>(rng.NextBounded(1000));
          }
          v = run_value;
          run_value -= static_cast<int64_t>(rng.NextBounded(3));
          break;
        default:  // heavy ties
          v = static_cast<int64_t>(rng.NextBounded(3));
          break;
      }
      a.clear();
      b.clear();
      slick.Push(v, collect(a));
      naive.Push(v, collect(b));
      ASSERT_EQ(a, b) << "trial " << trial << " shape " << shape << " tuple "
                      << t;
    }
  }
}

/// A per-tuple-driven aggregator and a batch-driven twin of the same type.
/// Feed() slides the same span through both — the twin via the bulk
/// dispatch (or, randomly, per-tuple too, so member fast paths interleave
/// with the scalar path mid-stream); any divergence is a bulk-path bug.
template <typename Agg>
struct BulkTwin {
  Agg single, bulk;

  template <typename... Args>
  explicit BulkTwin(Args&&... args) : single(args...), bulk(args...) {}

  void Feed(const typename Agg::value_type* src, std::size_t n,
            bool use_bulk) {
    for (std::size_t i = 0; i < n; ++i) single.slide(src[i]);
    if (use_bulk) {
      window::BulkSlide(bulk, src, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) bulk.slide(src[i]);
    }
  }
};

// Batch ingestion differential mode (DESIGN.md §11): random batch sizes —
// including n >= window, which exercises the whole-window rebuild paths —
// against a per-tuple twin of every fixed-window aggregator, checking the
// full-window answer and sub-range answers after every batch.
TEST(DifferentialFuzzTest, BatchSlideMatchesPerTupleSlide) {
  util::SplitMix64 config_rng(0xBA7C);
  const int trials = FuzzTrials(kConfigTrials);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t window = 1 + config_rng.NextBounded(120);
    const int shape = static_cast<int>(config_rng.NextBounded(5));
    const uint64_t seed = config_rng.NextU64();

    BulkTwin<window::NaiveWindow<ops::SumInt>> naive_sum(window);
    BulkTwin<window::FlatFat<ops::SumInt>> fat_sum(window);
    BulkTwin<window::FlatFit<ops::SumInt>> fit_sum(window);
    BulkTwin<core::Windowed<window::TwoStacks<ops::SumInt>>> two_sum(window);
    BulkTwin<core::Windowed<window::Daba<ops::SumInt>>> daba_sum(window);
    BulkTwin<core::Windowed<core::SubtractOnEvict<ops::SumInt>>> sub_sum(
        window);
    const std::vector<std::size_t> ranges = {1, 1 + window / 3, window};
    BulkTwin<core::SlickDequeInv<ops::SumInt>> slick_sum(window, ranges);

    BulkTwin<window::NaiveWindow<ops::MaxInt>> naive_max(window);
    BulkTwin<window::FlatFat<ops::MaxInt>> fat_max(window);
    BulkTwin<core::SlickDequeNonInv<ops::MaxInt>> slick_max(window);

    util::SplitMix64 rng(seed);
    int step = 0;
    for (int round = 0; round < 12; ++round) {
      const std::size_t n = 1 + rng.NextBounded(3 * window);
      std::vector<int64_t> batch(n);
      for (auto& v : batch) v = ShapedValue(rng, shape, step++);
      const bool use_bulk = rng.NextBounded(4) != 0;  // mostly bulk

      naive_sum.Feed(batch.data(), n, use_bulk);
      fat_sum.Feed(batch.data(), n, use_bulk);
      fit_sum.Feed(batch.data(), n, use_bulk);
      two_sum.Feed(batch.data(), n, use_bulk);
      daba_sum.Feed(batch.data(), n, use_bulk);
      sub_sum.Feed(batch.data(), n, use_bulk);
      slick_sum.Feed(batch.data(), n, use_bulk);
      naive_max.Feed(batch.data(), n, use_bulk);
      fat_max.Feed(batch.data(), n, use_bulk);
      slick_max.Feed(batch.data(), n, use_bulk);

      const int64_t expect_sum = naive_sum.single.query();
      ASSERT_EQ(naive_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(fat_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(fit_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(two_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(daba_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(sub_sum.bulk.query(), expect_sum) << "trial " << trial;
      ASSERT_EQ(slick_sum.bulk.query(), expect_sum) << "trial " << trial;

      const int64_t expect_max = naive_max.single.query();
      ASSERT_EQ(naive_max.bulk.query(), expect_max) << "trial " << trial;
      ASSERT_EQ(fat_max.bulk.query(), expect_max) << "trial " << trial;
      ASSERT_EQ(slick_max.bulk.query(), expect_max) << "trial " << trial;

      // Sub-range answers: a random range on the arbitrary-range four, and
      // the registered ranges on SlickDeque (Inv).
      const std::size_t r = 1 + rng.NextBounded(window);
      const int64_t expect_range = naive_sum.single.query(r);
      ASSERT_EQ(naive_sum.bulk.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(fat_sum.bulk.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(fit_sum.bulk.query(r), expect_range) << "trial " << trial;
      ASSERT_EQ(slick_max.bulk.query(r), naive_max.single.query(r))
          << "trial " << trial << " r=" << r;
      for (std::size_t reg : ranges) {
        ASSERT_EQ(slick_sum.bulk.query(reg), naive_sum.single.query(reg))
            << "trial " << trial << " range " << reg;
      }
    }
  }
}

/// FIFO counterpart of BulkTwin: random interleavings of bulk and
/// per-tuple insert/evict against a per-tuple twin.
template <typename Agg, typename Gen>
void FifoBatchVsSingle(uint64_t master_seed, Gen gen) {
  util::SplitMix64 config_rng(master_seed);
  const int trials = FuzzTrials(kConfigTrials);
  for (int trial = 0; trial < trials; ++trial) {
    Agg single, bulk;
    util::SplitMix64 rng(config_rng.NextU64());
    std::size_t live = 0;
    for (int round = 0; round < 40; ++round) {
      const std::size_t n = 1 + rng.NextBounded(24);
      std::vector<typename Agg::value_type> batch(n);
      for (auto& v : batch) v = gen(rng);
      for (const auto& v : batch) single.insert(v);
      if (rng.NextBounded(4) != 0) {
        window::BulkInsert(bulk, batch.data(), n);
      } else {
        for (const auto& v : batch) bulk.insert(v);
      }
      live += n;

      const std::size_t k = rng.NextBounded(live + 1);  // may empty it
      for (std::size_t i = 0; i < k; ++i) single.evict();
      if (rng.NextBounded(4) != 0) {
        window::BulkEvict(bulk, k);
      } else {
        for (std::size_t i = 0; i < k; ++i) bulk.evict();
      }
      live -= k;

      ASSERT_EQ(bulk.size(), single.size()) << "trial " << trial;
      if (live > 0) {
        ASSERT_EQ(bulk.query(), single.query())
            << "trial " << trial << " round " << round;
      }
    }
  }
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleMonotonicDequeMax) {
  FifoBatchVsSingle<core::SlickDequeNonInv<ops::MaxInt>>(
      0xCAFE, [](util::SplitMix64& rng) {
        return static_cast<int64_t>(rng.NextBounded(1 << 12)) - (1 << 11);
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleMonotonicDequeArgMax) {
  // ArgMax's tie-keeps-earlier rule makes identity of the winner (not just
  // its key) sensitive to staircase mistakes; narrow key range forces ties.
  FifoBatchVsSingle<core::SlickDequeNonInv<ops::ArgMax>>(
      0xACED, [id = uint64_t{0}](util::SplitMix64& rng) mutable {
        return ops::ArgSample{static_cast<double>(rng.NextBounded(8)), id++};
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleMonotonicDequeAlphaMax) {
  FifoBatchVsSingle<core::SlickDequeNonInv<ops::AlphaMax>>(
      0xF1FA, [](util::SplitMix64& rng) {
        return std::string(1, static_cast<char>('a' + rng.NextBounded(6)));
      });
}

// NaN payloads through SlickDeque (Non-Inv)<Max>. Nothing absorbs a NaN
// and a NaN absorbs nothing, so the batch paths (survivor-mask kernel or
// staircase) must build the per-tuple deque node for node. Both faces are
// checked at the scalar and at the widest compiled kernel level, with
// NaN-aware equality. Small integer values force ties.
double NaNPayload(util::SplitMix64& rng) {
  return rng.NextBounded(10) == 0
             ? std::numeric_limits<double>::quiet_NaN()
             : static_cast<double>(static_cast<int64_t>(rng.NextBounded(16)) -
                                   8);
}

bool SameAnswer(double a, double b) { return a == b || (a != a && b != b); }

/// Same node count, whole-window answer and answer of every range over
/// the newest `live` partials.
::testing::AssertionResult SameDeque(
    const core::SlickDequeNonInv<ops::Max>& a,
    const core::SlickDequeNonInv<ops::Max>& b, std::size_t live) {
  if (a.node_count() != b.node_count()) {
    return ::testing::AssertionFailure() << "node counts " << a.node_count()
                                         << " vs " << b.node_count();
  }
  if (!SameAnswer(a.query(), b.query())) {
    return ::testing::AssertionFailure()
           << "query() " << a.query() << " vs " << b.query();
  }
  for (std::size_t r = 1; r <= live; ++r) {
    if (!SameAnswer(a.query(r), b.query(r))) {
      return ::testing::AssertionFailure() << "query(" << r << ") "
                                           << a.query(r) << " vs "
                                           << b.query(r);
    }
  }
  return ::testing::AssertionSuccess();
}

template <typename F>
void AtScalarAndWidestLevel(F f) {
  for (const auto level : {ops::kernels::SimdLevel::kScalar,
                           ops::kernels::DetectSimdLevel()}) {
    ops::kernels::SetSimdLevel(level);
    SCOPED_TRACE(ops::kernels::SimdLevelName(level));
    f();
  }
  ops::kernels::SetSimdLevel(ops::kernels::DetectSimdLevel());
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleNonInvMaxNaN) {
  AtScalarAndWidestLevel([] {
    util::SplitMix64 config_rng(0x7A7A);
    const int trials = FuzzTrials(kConfigTrials);
    for (int trial = 0; trial < trials; ++trial) {
      core::SlickDequeNonInv<ops::Max> single, bulk;
      util::SplitMix64 rng(config_rng.NextU64());
      std::size_t live = 0;
      for (int round = 0; round < 40; ++round) {
        // Up to 48 per batch, so the wide kernels see whole blocks.
        const std::size_t n = 1 + rng.NextBounded(48);
        std::vector<double> batch(n);
        for (auto& v : batch) v = NaNPayload(rng);
        for (double v : batch) single.insert(v);
        bulk.BulkInsert(batch.data(), n);
        live += n;
        const std::size_t k = rng.NextBounded(live + 1);  // may empty it
        for (std::size_t i = 0; i < k; ++i) single.evict();
        bulk.BulkEvict(k);
        live -= k;
        ASSERT_EQ(bulk.size(), live) << "trial " << trial;
        ASSERT_TRUE(SameDeque(bulk, single, live))
            << "trial " << trial << " round " << round;
      }
    }
  });
}

TEST(DifferentialFuzzTest, BatchSlideMatchesPerTupleNonInvMaxNaN) {
  AtScalarAndWidestLevel([] {
    util::SplitMix64 config_rng(0x4E614E);
    const int trials = FuzzTrials(kConfigTrials);
    for (int trial = 0; trial < trials; ++trial) {
      const std::size_t window = 1 + config_rng.NextBounded(120);
      BulkTwin<core::SlickDequeNonInv<ops::Max>> twin(window);
      util::SplitMix64 rng(config_rng.NextU64());
      for (int round = 0; round < 12; ++round) {
        const std::size_t n = 1 + rng.NextBounded(3 * window);
        std::vector<double> batch(n);
        for (auto& v : batch) v = NaNPayload(rng);
        twin.Feed(batch.data(), n, rng.NextBounded(4) != 0);
        ASSERT_TRUE(SameDeque(twin.bulk, twin.single, twin.single.size()))
            << "trial " << trial << " window " << window << " round "
            << round;
      }
    }
  });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleSubtractOnEvict) {
  FifoBatchVsSingle<core::SubtractOnEvict<ops::SumInt>>(
      0x5AFE, [](util::SplitMix64& rng) {
        return static_cast<int64_t>(rng.NextBounded(1 << 16)) - (1 << 15);
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleTwoStacksSum) {
  FifoBatchVsSingle<window::TwoStacks<ops::SumInt>>(
      0x257C, [](util::SplitMix64& rng) {
        return static_cast<int64_t>(rng.NextBounded(1 << 16)) - (1 << 15);
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleTwoStacksConcat) {
  // Concat is the order-correctness probe: any bulk path that reorders
  // combines produces a visibly different string.
  FifoBatchVsSingle<window::TwoStacks<ops::Concat>>(
      0xC0CA, [](util::SplitMix64& rng) {
        return std::string(1, static_cast<char>('a' + rng.NextBounded(26)));
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleDabaMax) {
  FifoBatchVsSingle<window::Daba<ops::MaxInt>>(
      0xDABA, [](util::SplitMix64& rng) {
        return static_cast<int64_t>(rng.NextBounded(1 << 12)) - (1 << 11);
      });
}

TEST(DifferentialFuzzTest, FifoBatchMatchesPerTupleDabaConcat) {
  FifoBatchVsSingle<window::Daba<ops::Concat>>(
      0xDAB2, [](util::SplitMix64& rng) {
        return std::string(1, static_cast<char>('a' + rng.NextBounded(26)));
      });
}

// Randomized configurations for the multi-threaded runtime: shard counts,
// ring capacities, batch sizes and both backpressure modes, checked for
// (a) answer agreement with a single NaiveWindow over the whole window at
// slide barriers (lossless mode) and (b) the telemetry conservation
// identities at every epoch snapshot:
//   live (router thread):   fed == admitted + dropped + staged,
//                           tuples_out <= tuples_in        (per shard)
//   quiescent (post-query): tuples_in == tuples_out, in_flight == 0.
TEST(DifferentialFuzzTest, ParallelEngineTelemetryConservationOnRandomConfigs) {
  using Agg = core::SlickDequeInv<ops::SumInt>;
  util::SplitMix64 config_rng(0xD15C);
  const int trials = FuzzTrials(12);
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t shards = 1 + config_rng.NextBounded(8);
    const std::size_t shard_window = 1 + config_rng.NextBounded(48);
    const std::size_t window = shards * shard_window;
    runtime::ParallelShardedEngine<Agg>::Options opt;
    opt.ring_capacity = std::size_t{1} << (2 + config_rng.NextBounded(7));
    opt.batch = 1 + config_rng.NextBounded(48);
    const bool drop = config_rng.NextBounded(4) == 0;  // mostly lossless
    opt.backpressure = drop ? runtime::Backpressure::kDropNewest
                            : runtime::Backpressure::kBlock;
    const uint64_t seed = config_rng.NextU64();
    const int epochs = 2 + static_cast<int>(config_rng.NextBounded(4));
    // Per-epoch tuple count is a multiple of `shards` so every epoch cut is
    // a slide barrier (where the N-way combine is exact, see
    // parallel_engine.h).
    const uint64_t per_epoch =
        shards * (shard_window + 1 + config_rng.NextBounded(200));

    runtime::ParallelShardedEngine<Agg> par(window, shards, opt);
    window::NaiveWindow<ops::SumInt> ref(window);

    util::SplitMix64 rng(seed);
    uint64_t fed = 0;
    for (int e = 0; e < epochs; ++e) {
      for (uint64_t i = 0; i < per_epoch; ++i) {
        const auto v = static_cast<int64_t>(rng.NextBounded(1 << 20)) -
                       (1 << 19);
        par.push(v);
        ref.slide(v);
        ++fed;
      }
      par.flush();

      // Live cut: workers may still be draining. Router-side admission
      // accounting is exact (the test thread IS the router); worker-side
      // counters may only trail admission.
      const telemetry::RuntimeSnapshot live = par.snapshot();
      ASSERT_EQ(live.total_in() + live.total_dropped() + live.total_staged(),
                fed)
          << "trial " << trial << " epoch " << e;
      ASSERT_EQ(live.total_staged(), 0u) << "after flush, trial " << trial;
      if (!drop) {
        ASSERT_EQ(live.total_dropped(), 0u) << "trial " << trial;
      }
      for (std::size_t s = 0; s < live.shards.size(); ++s) {
        const telemetry::ShardSnapshot& sh = live.shards[s];
        ASSERT_LE(sh.tuples_out, sh.tuples_in)
            << "trial " << trial << " shard " << s;
        ASSERT_LE(sh.in_flight, opt.ring_capacity)
            << "trial " << trial << " shard " << s;
        ASSERT_LE(sh.ring_highwater, opt.ring_capacity)
            << "trial " << trial << " shard " << s;
      }

      // Quiescent cut: query() awaits the epoch, so everything admitted has
      // been slid and the rings are empty. Under kDropNewest, shedding can
      // legitimately starve a shard's warm-up (the scheduler decides how
      // fast workers drain), so only query once every shard actually
      // admitted a full window.
      bool warm = true;
      for (const telemetry::ShardSnapshot& sh : live.shards) {
        if (sh.tuples_in < shard_window) warm = false;
      }
      if (!drop) {
        ASSERT_TRUE(warm) << "trial " << trial << " epoch " << e;
        ASSERT_TRUE(par.ready()) << "trial " << trial << " epoch " << e;
      }
      if (!warm) continue;
      const int64_t got = par.query();
      const telemetry::RuntimeSnapshot quiet = par.snapshot();
      ASSERT_EQ(quiet.total_in(), quiet.total_out())
          << "trial " << trial << " epoch " << e;
      ASSERT_EQ(quiet.total_in_flight(), 0u)
          << "trial " << trial << " epoch " << e;
      ASSERT_EQ(quiet.total_in() + quiet.total_dropped(), fed)
          << "trial " << trial << " epoch " << e;
      // Every drained batch was timed: the merged histogram's count equals
      // the total batch count.
      uint64_t batches = 0;
      for (const telemetry::ShardSnapshot& sh : quiet.shards) {
        batches += sh.batches;
      }
      ASSERT_EQ(quiet.batch_latency_ns.total(), batches)
          << "trial " << trial << " epoch " << e;

      // Answer agreement with the single-window oracle (lossless mode only
      // — shedding legitimately changes per-shard suffixes).
      if (!drop) {
        ASSERT_EQ(got, ref.query()) << "trial " << trial << " epoch " << e
                                    << " shards=" << shards
                                    << " window=" << window;
      }
    }

    par.stop();
    const telemetry::RuntimeSnapshot fin = par.snapshot();
    ASSERT_EQ(fin.total_in(), fin.total_out()) << "trial " << trial;
    ASSERT_EQ(fin.total_in_flight(), 0u) << "trial " << trial;
    ASSERT_EQ(fin.total_in() + fin.total_dropped(), fed) << "trial " << trial;
  }
}

}  // namespace
}  // namespace slick
