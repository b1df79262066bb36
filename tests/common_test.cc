#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/attr_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace famtree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Invalid("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kAlreadyExists,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  FAMTREE_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Invalid("x")).ok());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseInt64) {
  long long v;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDouble) {
  double v;
  EXPECT_TRUE(ParseDouble("1.5", &v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcdef", 3), "abc");
}

TEST(AttrSetTest, BasicOperations) {
  AttrSet s = AttrSet::Of({1, 3, 5});
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(2));
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.ToVector(), (std::vector<int>{1, 5}));
}

TEST(AttrSetTest, SetAlgebra) {
  AttrSet a = AttrSet::Of({0, 1, 2});
  AttrSet b = AttrSet::Of({2, 3});
  EXPECT_EQ(a.Union(b), AttrSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttrSet::Of({2}));
  EXPECT_EQ(a.Minus(b), AttrSet::Of({0, 1}));
  EXPECT_TRUE(a.ContainsAll(AttrSet::Of({0, 2})));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(AttrSet::Of({0}).Intersects(AttrSet::Of({1})));
}

TEST(AttrSetTest, FullSet) {
  EXPECT_EQ(AttrSet::Full(3), AttrSet::Of({0, 1, 2}));
  EXPECT_EQ(AttrSet::Full(1).size(), 1);
  EXPECT_EQ(AttrSet::Full(0).size(), 0);
}

TEST(AttrSetTest, SubsetsOfSizeCoversAll) {
  auto subsets = AllSubsetsOfSize(5, 2);
  EXPECT_EQ(subsets.size(), 10u);  // C(5,2)
  for (const AttrSet& s : subsets) EXPECT_EQ(s.size(), 2);
  // All distinct.
  std::set<uint64_t> seen;
  for (const AttrSet& s : subsets) seen.insert(s.mask());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(AttrSetTest, SubsetsEdgeCases) {
  EXPECT_EQ(AllSubsetsOfSize(4, 0).size(), 1u);
  EXPECT_EQ(AllSubsetsOfSize(4, 4).size(), 1u);
  EXPECT_EQ(AllSubsetsOfSize(4, 5).size(), 0u);
  EXPECT_EQ(AllSubsetsOfSize(3, 1).size(), 3u);
}

TEST(AttrSetTest, ProperNonEmptySubsets) {
  // {0,2} has exactly the proper non-empty subsets {0} and {2}.
  auto subs = ProperNonEmptySubsets(AttrSet::Of({0, 2}));
  ASSERT_EQ(subs.size(), 2u);
  std::set<uint64_t> masks{subs[0].mask(), subs[1].mask()};
  EXPECT_TRUE(masks.count(AttrSet::Of({0}).mask()));
  EXPECT_TRUE(masks.count(AttrSet::Of({2}).mask()));
}

TEST(AttrSetTest, ProperNonEmptySubsetsOfThree) {
  auto subs = ProperNonEmptySubsets(AttrSet::Of({0, 1, 2}));
  EXPECT_EQ(subs.size(), 6u);  // 2^3 - 2
}

// Regression for the pre-widening mask-boundary bug family: every index
// operation at and around the 64-bit word seams used to be an undefined
// shift (`1ULL << 64`). This test runs under UBSan via scripts/check.sh.
TEST(AttrSetTest, WideIndexRoundTrip) {
  for (int a : {0, 1, 62, 63, 64, 65, 100, 127, 128, 191, 192, 254, 255}) {
    AttrSet s;
    s.Add(a);
    EXPECT_TRUE(s.Contains(a)) << "bit " << a;
    EXPECT_EQ(s.size(), 1) << "bit " << a;
    EXPECT_EQ(s, AttrSet::Single(a)) << "bit " << a;
    EXPECT_EQ(s.ToVector(), (std::vector<int>{a})) << "bit " << a;
    EXPECT_FALSE(s.Contains(a == 0 ? 255 : a - 1)) << "bit " << a;
    s.Remove(a);
    EXPECT_TRUE(s.empty()) << "bit " << a;
    EXPECT_EQ(AttrSet().With(a).Without(a), AttrSet()) << "bit " << a;
  }
}

TEST(AttrSetTest, WideSetAlgebra) {
  AttrSet a = AttrSet::Of({3, 63, 64, 130, 255});
  AttrSet b = AttrSet::Of({63, 130, 200});
  EXPECT_EQ(a.Union(b), AttrSet::Of({3, 63, 64, 130, 200, 255}));
  EXPECT_EQ(a.Intersect(b), AttrSet::Of({63, 130}));
  EXPECT_EQ(a.Minus(b), AttrSet::Of({3, 64, 255}));
  EXPECT_TRUE(a.ContainsAll(AttrSet::Of({63, 255})));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(AttrSet::Of({64}).Intersects(AttrSet::Of({65, 128})));
  EXPECT_EQ(a.size(), 5);
  EXPECT_EQ(a.ToVector(), (std::vector<int>{3, 63, 64, 130, 255}));
}

TEST(AttrSetTest, WideFullAndRange) {
  EXPECT_EQ(AttrSet::Full(64).size(), 64);
  EXPECT_EQ(AttrSet::Full(65).size(), 65);
  EXPECT_EQ(AttrSet::Full(kMaxAttrs).size(), kMaxAttrs);
  EXPECT_TRUE(AttrSet::Full(kMaxAttrs).Contains(kMaxAttrs - 1));
  EXPECT_EQ(AttrSet::Full(100).Minus(AttrSet::Range(0, 64)),
            AttrSet::Range(64, 100));
  EXPECT_EQ(AttrSet::Range(60, 70).size(), 10);
  EXPECT_TRUE(AttrSet::Range(60, 70).Contains(63));
  EXPECT_TRUE(AttrSet::Range(60, 70).Contains(64));
  EXPECT_FALSE(AttrSet::Range(60, 70).Contains(70));
}

TEST(AttrSetTest, WideOrderingComparesHighWordsFirst) {
  // {200} > {0..63} even though the latter has a larger low word: the
  // comparator orders by highest word first, matching the historical
  // single-uint64 order on narrow sets.
  EXPECT_LT(AttrSet::Full(64), AttrSet::Single(200));
  EXPECT_LT(AttrSet::Single(63), AttrSet::Single(64));
  EXPECT_LT(AttrSet::Of({64, 3}), AttrSet::Of({64, 5}));
  EXPECT_LT(AttrSet::Of({1}), AttrSet::Of({2}));
  std::set<AttrSet> ordered{AttrSet::Single(128), AttrSet::Single(1),
                            AttrSet::Single(64)};
  std::vector<AttrSet> v(ordered.begin(), ordered.end());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], AttrSet::Single(1));
  EXPECT_EQ(v[1], AttrSet::Single(64));
  EXPECT_EQ(v[2], AttrSet::Single(128));
}

TEST(AttrSetTest, WideIterationAndLowestBit) {
  AttrSet s = AttrSet::Of({5, 63, 64, 129, 255});
  std::vector<int> seen;
  for (int a : s) seen.push_back(a);
  EXPECT_EQ(seen, (std::vector<int>{5, 63, 64, 129, 255}));
  EXPECT_EQ(s.LowestBit(), 5);
  AttrSet t = s;
  std::vector<int> popped;
  while (!t.empty()) popped.push_back(t.PopLowestBit());
  EXPECT_EQ(popped, seen);
}

TEST(AttrSetTest, WideHashDistinguishesWords) {
  // Same low word, different high words must hash differently (the old
  // mask()-based hash would collide everything above bit 63 onto word 0).
  EXPECT_NE(AttrSet::Of({1, 64}).Hash(), AttrSet::Of({1, 128}).Hash());
  EXPECT_NE(AttrSet::Single(64).Hash(), AttrSet::Single(65).Hash());
  EXPECT_EQ(AttrSet::Of({1, 64}).Hash(), AttrSet::Of({64, 1}).Hash());
}

TEST(AttrSetTest, SubsetsOfSizeWide) {
  // n > 64 takes the colex combination path instead of Gosper's hack.
  auto subsets = AllSubsetsOfSize(70, 2);
  EXPECT_EQ(subsets.size(), 70u * 69 / 2);  // C(70,2)
  std::set<AttrSet> seen;
  for (const AttrSet& s : subsets) {
    EXPECT_EQ(s.size(), 2);
    EXPECT_TRUE(AttrSet::Full(70).ContainsAll(s));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), subsets.size());
  // Both paths agree where they overlap in n, including the exact word
  // seam (Gosper's step for the final n = 64 combination used to shift by
  // 64 — UB — and emit a phantom extra subset).
  auto narrow = AllSubsetsOfSize(64, 1);
  EXPECT_EQ(narrow.size(), 64u);
  EXPECT_EQ(narrow.back(), AttrSet::Single(63));
  EXPECT_EQ(AllSubsetsOfSize(64, 63).size(), 64u);
  auto full = AllSubsetsOfSize(64, 64);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0], AttrSet::Full(64));
  auto wide = AllSubsetsOfSize(65, 1);
  EXPECT_EQ(wide.size(), 65u);
  EXPECT_EQ(wide.back(), AttrSet::Single(64));
}

TEST(AttrSetTest, ProperNonEmptySubsetsSpansWords) {
  AttrSet s = AttrSet::Of({10, 63, 64, 200});
  auto subs = ProperNonEmptySubsets(s);
  EXPECT_EQ(subs.size(), 14u);  // 2^4 - 2
  std::set<AttrSet> seen;
  for (const AttrSet& sub : subs) {
    EXPECT_FALSE(sub.empty());
    EXPECT_NE(sub, s);
    EXPECT_TRUE(s.ContainsAll(sub));
    seen.insert(sub);
  }
  EXPECT_EQ(seen.size(), subs.size());
  EXPECT_TRUE(seen.count(AttrSet::Of({63, 64, 200})));
  EXPECT_TRUE(seen.count(AttrSet::Single(200)));
}

TEST(AttrSetTest, CheckAttrCapacityBoundary) {
  EXPECT_TRUE(CheckAttrCapacity(0, "test").ok());
  EXPECT_TRUE(CheckAttrCapacity(kMaxAttrs, "test").ok());
  Status st = CheckAttrCapacity(kMaxAttrs + 1, "test");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The one shared message quotes the one real capacity constant.
  EXPECT_NE(st.message().find("test"), std::string::npos);
  EXPECT_NE(st.message().find(std::to_string(kMaxAttrs)), std::string::npos);
  EXPECT_NE(st.message().find("kMaxAttrs"), std::string::npos);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleMoreThanPopulation) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ZipfSkewsTowardsHead) {
  Rng rng(5);
  int head = 0, total = 10000;
  for (int i = 0; i < total; ++i) {
    if (rng.Zipf(1000, 1.2) < 10) ++head;
  }
  // With theta = 1.2 the top-10 ranks carry far more than 1% of the mass.
  EXPECT_GT(head, total / 10);
}

TEST(RngTest, ZipfDegenerate) {
  Rng rng(5);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0);
}

// Rng's engine is a hand-written MT19937-64; std::mt19937_64 stays here as
// the oracle. Every seeded sample in the library (and every golden file
// frozen from one) depends on the two agreeing bit for bit.
const uint64_t kOracleSeeds[] = {0, 1, 42,
                                 std::numeric_limits<uint64_t>::max()};
constexpr int kOracleDraws = 20000;  // 64 twists of the 312-word state

TEST(RngOracleTest, EngineMatchesStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  for (uint64_t seed : kOracleSeeds) {
    std::mt19937_64 oracle(seed);
    Mt19937_64 engine(seed);
    for (int k = 0; k < kOracleDraws; ++k) {
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << k;
    }
  }
}

TEST(RngOracleTest, UniformMatchesStdDistribution) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // (lo, hi): small ranges, a 50k-row pair draw, the full int64 range, and
  // a range of 3 * 2^62 values: 2^64 mod it is 2^62, so about a quarter of
  // the raw draws land under the rejection threshold and are redrawn.
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 0}, {-5, 5}, {0, 49999}, {kMin, kMax}, {-(int64_t{1} << 62), kMax}};
  for (uint64_t seed : kOracleSeeds) {
    for (auto [lo, hi] : ranges) {
      std::mt19937_64 oracle(seed);
      Rng rng(seed);
      for (int k = 0; k < kOracleDraws; ++k) {
        std::uniform_int_distribution<int64_t> d(lo, hi);
        ASSERT_EQ(rng.Uniform(lo, hi), d(oracle))
            << "seed " << seed << " [" << lo << ", " << hi << "] draw " << k;
      }
      // Both engines consumed the same number of raw words.
      EXPECT_EQ(rng.engine()(), oracle()) << "seed " << seed;
    }
  }
  // The wide range really took the rejection loop: the engine advanced
  // past one raw word per call.
  Rng rng(42);
  for (int k = 0; k < kOracleDraws; ++k) {
    rng.Uniform(-(int64_t{1} << 62), kMax);
  }
  std::mt19937_64 one_per_call(42);
  one_per_call.discard(kOracleDraws);
  EXPECT_NE(rng.engine()(), one_per_call());
}

TEST(RngOracleTest, RealDistributionsMatchStd) {
  for (uint64_t seed : kOracleSeeds) {
    std::mt19937_64 oracle(seed);
    Rng rng(seed);
    for (int k = 0; k < kOracleDraws; ++k) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      ASSERT_EQ(rng.NextDouble(), u(oracle)) << "seed " << seed << " @" << k;
      // Rng::Normal uses a fresh distribution per call, so the polar
      // method's cached second value is discarded — the oracle does the
      // same.
      std::normal_distribution<double> g(3.0, 2.0);
      ASSERT_EQ(rng.Normal(3.0, 2.0), g(oracle))
          << "seed " << seed << " @" << k;
    }
  }
}

TEST(RngOracleTest, SampleWithoutReplacementAndShuffleMatchStd) {
  for (uint64_t seed : kOracleSeeds) {
    std::mt19937_64 oracle(seed);
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      const int n = 300 + round, k = 200;
      // Partial Fisher-Yates over the oracle engine.
      std::vector<int> expected(n);
      std::iota(expected.begin(), expected.end(), 0);
      for (int i = 0; i < k; ++i) {
        std::uniform_int_distribution<int64_t> d(i, n - 1);
        std::swap(expected[i], expected[d(oracle)]);
      }
      expected.resize(k);
      ASSERT_EQ(rng.SampleWithoutReplacement(n, k), expected)
          << "seed " << seed << " round " << round;
    }
    std::vector<int> a(1000), b(1000);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    for (int round = 0; round < 20; ++round) {
      std::shuffle(a.begin(), a.end(), rng.engine());
      std::shuffle(b.begin(), b.end(), oracle);
      ASSERT_EQ(a, b) << "seed " << seed << " round " << round;
    }
  }
}

}  // namespace
}  // namespace famtree
