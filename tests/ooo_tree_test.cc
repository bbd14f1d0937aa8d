// OooTree tests: differential fuzz against a sorted std::multimap oracle
// over random insert/bulk-insert/bulk-evict interleavings for every op
// class (invertible, selective non-invertible, non-commutative string),
// plus time-order answers, bulk-insert span equivalence and structural
// invariants (DESIGN.md §13). The tree is a standalone aggregator;
// bench/exp6_ooo measures it, and no runtime mode drives it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ops/arith.h"
#include "ops/minmax.h"
#include "ops/string_ops.h"
#include "util/rng.h"
#include "window/ooo_tree.h"

namespace slick::window {
namespace {

// ---------------------------------------------------------------------
// Oracle: a sorted multimap of (t, lifted value) in arrival order. Equal
// timestamps fold together in arrival order at query time, matching the
// tree's merge-on-insert semantics; everything is recomputed from scratch
// so the oracle cannot share a bug with the tree.
// ---------------------------------------------------------------------
template <typename Op>
struct Oracle {
  using V = typename Op::value_type;
  std::multimap<uint64_t, V> entries;

  void Insert(uint64_t t, V v) { entries.emplace(t, std::move(v)); }

  std::size_t BulkEvict(uint64_t watermark) {
    std::size_t distinct = 0;
    uint64_t prev = 0;
    bool first = true;
    auto it = entries.begin();
    while (it != entries.end() && it->first < watermark) {
      if (first || it->first != prev) ++distinct;
      prev = it->first;
      first = false;
      it = entries.erase(it);
    }
    return distinct;
  }

  typename Op::result_type Query() const {
    V acc = Op::identity();
    for (const auto& [t, v] : entries) acc = Op::combine(std::move(acc), v);
    return Op::lower(acc);
  }

  std::size_t DistinctKeys() const {
    std::size_t n = 0;
    for (auto it = entries.begin(); it != entries.end();
         it = entries.upper_bound(it->first)) {
      ++n;
    }
    return n;
  }
};

// Per-op random value generators (exactly comparable types only, so the
// differential checks can use operator==).
template <typename Op>
typename Op::value_type RandomValue(util::SplitMix64& rng);

template <>
int64_t RandomValue<ops::SumInt>(util::SplitMix64& rng) {
  return static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
}
template <>
int64_t RandomValue<ops::MaxInt>(util::SplitMix64& rng) {
  return static_cast<int64_t>(rng.NextBounded(1000000));
}
std::string RandomString(util::SplitMix64& rng) {
  const std::size_t len = 1 + rng.NextBounded(3);
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  return s;
}
template <>
std::string RandomValue<ops::Concat>(util::SplitMix64& rng) {
  return RandomString(rng);
}
template <>
std::string RandomValue<ops::AlphaMax>(util::SplitMix64& rng) {
  return RandomString(rng);
}

template <typename Op, std::size_t MinArity>
void ExpectTreeMatchesOracle(const OooTree<Op, MinArity>& tree,
                             const Oracle<Op>& oracle, const char* where) {
  ASSERT_TRUE(tree.CheckInvariants()) << Op::kName << " " << where;
  ASSERT_EQ(tree.size(), oracle.DistinctKeys()) << Op::kName << " " << where;
  EXPECT_EQ(tree.query(), oracle.Query()) << Op::kName << " " << where;
  if (oracle.entries.empty()) return;
  EXPECT_EQ(tree.oldest(), oracle.entries.begin()->first);
  EXPECT_EQ(tree.newest(), oracle.entries.rbegin()->first);
}

/// The core differential fuzz: random interleavings of in-order inserts,
/// out-of-order inserts (>= ~35% of traffic, well above the 10% bar),
/// watermark bulk evictions and bulk inserts, validated against the
/// oracle after every step.
template <typename Op, std::size_t MinArity>
void FuzzAgainstOracle(uint64_t seed, std::size_t steps) {
  util::SplitMix64 rng(seed);
  OooTree<Op, MinArity> tree;
  Oracle<Op> oracle;
  uint64_t clock = 0;  // the in-order frontier

  for (std::size_t step = 0; step < steps; ++step) {
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 35) {  // in-order insert (sometimes a duplicate timestamp)
      clock += rng.NextBounded(3);
      auto v = RandomValue<Op>(rng);
      tree.Insert(clock, v);
      oracle.Insert(clock, v);
    } else if (dice < 70) {  // out-of-order insert at distance up to 64
      const uint64_t d = 1 + rng.NextBounded(64);
      const uint64_t t = clock > d ? clock - d : 0;
      auto v = RandomValue<Op>(rng);
      tree.Insert(t, v);
      oracle.Insert(t, v);
    } else if (dice < 92) {  // watermark bulk eviction
      const uint64_t span = tree.empty() ? 0 : tree.newest() - tree.oldest();
      const uint64_t w =
          tree.empty() ? clock : tree.oldest() + rng.NextBounded(span + 2);
      EXPECT_EQ(tree.BulkEvict(w), oracle.BulkEvict(w))
          << Op::kName << " w=" << w;
    } else {  // bulk insert of a small span (mostly sorted, some stragglers)
      std::vector<Timed<typename Op::value_type>> span(1 +
                                                       rng.NextBounded(24));
      uint64_t t = clock;
      for (auto& e : span) {
        if (rng.NextBounded(100) < 20 && t > 16) {
          e.t = t - 1 - rng.NextBounded(16);  // straggler inside the span
        } else {
          t += rng.NextBounded(3);
          e.t = t;
        }
        e.v = RandomValue<Op>(rng);
        oracle.Insert(e.t, e.v);
      }
      clock = std::max(clock, t);
      tree.BulkInsert(span.data(), span.size());
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectTreeMatchesOracle(tree, oracle, "fuzz step"));
  }
}

TEST(OooTreeTest, InOrderInsertAndQuery) {
  OooTree<ops::SumInt> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.query(), 0);
  int64_t sum = 0;
  for (uint64_t t = 0; t < 500; ++t) {
    tree.Insert(t, static_cast<int64_t>(t));
    sum += static_cast<int64_t>(t);
    ASSERT_EQ(tree.query(), sum);
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_EQ(tree.oldest(), 0u);
  EXPECT_EQ(tree.newest(), 499u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(OooTreeTest, EqualTimestampsMergeInArrivalOrder) {
  OooTree<ops::Concat> tree;
  tree.Insert(5, "a");
  tree.Insert(7, "x");
  tree.Insert(5, "b");  // merges into t=5 as "ab"
  tree.Insert(3, "0");
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.query(), "0abx");
}

TEST(OooTreeTest, BulkEvictAdvancesWindow) {
  OooTree<ops::MaxInt, 2> tree;  // tiny arity: constant rebalancing
  for (uint64_t t = 0; t < 300; ++t) {
    tree.Insert(t, static_cast<int64_t>((t * 37) % 101));
  }
  EXPECT_EQ(tree.BulkEvict(0), 0u) << "watermark below oldest is a no-op";
  EXPECT_EQ(tree.BulkEvict(100), 100u);
  EXPECT_EQ(tree.oldest(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
  // Whole-tree eviction, then reuse.
  EXPECT_EQ(tree.BulkEvict(1000), 200u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants());
  tree.Insert(2000, 5);
  EXPECT_EQ(tree.query(), 5);
}

TEST(OooTreeTest, RangeQueryRespectsStreamOrderForNonCommutativeOps) {
  // Concat is the order-correctness probe: any combine out of time order
  // is visible in the output string.
  OooTree<ops::Concat, 2> tree;
  std::string expect;
  for (uint64_t t = 0; t < 26; ++t) {
    expect.push_back(static_cast<char>('a' + t));
  }
  // Insert every even timestamp first, then the odds out of order.
  for (uint64_t t = 0; t < 26; t += 2) {
    tree.Insert(t, std::string(1, static_cast<char>('a' + t)));
  }
  for (uint64_t t = 25; t < 26; t -= 2) {
    tree.Insert(t, std::string(1, static_cast<char>('a' + t)));
  }
  EXPECT_EQ(tree.query(), expect);
}

TEST(OooTreeTest, DifferentialFuzzInvertibleOp) {
  FuzzAgainstOracle<ops::SumInt, 2>(101, 600);
  FuzzAgainstOracle<ops::SumInt, 8>(102, 600);
}

TEST(OooTreeTest, DifferentialFuzzSelectiveOp) {
  FuzzAgainstOracle<ops::MaxInt, 2>(201, 600);
  FuzzAgainstOracle<ops::MaxInt, 8>(202, 600);
}

TEST(OooTreeTest, DifferentialFuzzNonCommutativeStringOp) {
  FuzzAgainstOracle<ops::Concat, 2>(301, 400);
  FuzzAgainstOracle<ops::Concat, 8>(302, 400);
}

TEST(OooTreeTest, DifferentialFuzzSelectiveStringOp) {
  FuzzAgainstOracle<ops::AlphaMax, 2>(401, 400);
  FuzzAgainstOracle<ops::AlphaMax, 8>(402, 400);
}

TEST(OooTreeTest, BulkInsertMatchesElementwiseInsert) {
  // A span with ~25% out-of-order traffic must land identically to the
  // per-element path — same structure-independent answers, same entries.
  // Evicting one timestamp at a time exposes every entry in turn.
  util::SplitMix64 rng(77);
  std::vector<Timed<int64_t>> span(4000);
  uint64_t t = 0;
  for (auto& e : span) {
    if (rng.NextBounded(4) == 0 && t > 100) {
      e.t = t - 1 - rng.NextBounded(100);
    } else {
      t += 1 + rng.NextBounded(2);
      e.t = t;
    }
    e.v = static_cast<int64_t>(rng.NextBounded(1000));
  }
  OooTree<ops::SumInt> bulk;
  bulk.BulkInsert(span.data(), span.size());
  OooTree<ops::SumInt> scalar;
  for (const auto& e : span) scalar.Insert(e.t, e.v);
  EXPECT_TRUE(bulk.CheckInvariants());
  EXPECT_EQ(bulk.size(), scalar.size());
  EXPECT_EQ(bulk.query(), scalar.query());
  while (!bulk.empty()) {
    ASSERT_FALSE(scalar.empty());
    ASSERT_EQ(bulk.oldest(), scalar.oldest());
    const uint64_t w = bulk.oldest() + 1;
    ASSERT_EQ(bulk.BulkEvict(w), scalar.BulkEvict(w)) << "w=" << w;
    ASSERT_EQ(bulk.query(), scalar.query()) << "w=" << w;
  }
  EXPECT_TRUE(scalar.empty());
}

TEST(OooTreeTest, MemoryBytesGrowsAndShrinks) {
  OooTree<ops::SumInt> tree;
  const std::size_t empty_bytes = tree.memory_bytes();
  for (uint64_t t = 0; t < 10000; ++t) tree.Insert(t, 1);
  const std::size_t full_bytes = tree.memory_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  tree.BulkEvict(10000);
  EXPECT_LT(tree.memory_bytes(), full_bytes);
}

}  // namespace
}  // namespace slick::window
