// Independent checkers for the production miners, built on the deps/
// validators rather than on any second mining path. For every thread count
// {1, 2, 8}:
//   - soundness: each emitted dependency Holds() on the input, or meets the
//     measure it reports (support, probability, confidence) when recomputed
//     by the dependency class itself;
//   - completeness and minimality, on small random relations (<= 6
//     columns): the emitted set equals the set a brute-force subset
//     enumeration over the same semantics produces — TANE, FastFDs and the
//     hybrid engine against DiscoverFdsNaive, approximate TANE against its
//     g3 enumeration (errors included), constant and general CFDs,
//     MVDs, PFDs and unary ODs.
//
// Seeds derive from CaseSeed("<TestCaseName>/<i>"), the convention of
// tests/ported_determinism_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "deps/fhd.h"
#include "deps/mvd.h"
#include "deps/pfd.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "metric/metric.h"

namespace famtree {
namespace {

const int kThreadCounts[] = {1, 2, 8};
const int kRelationsPerCase = 6;

constexpr uint64_t CaseSeed(const char* name) {
  uint64_t h = 14695981039346656037ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t RelationSeed(const char* test, int i) {
  return CaseSeed((std::string(test) + "/" + std::to_string(i)).c_str());
}

/// A small random relation with planted dependencies: c0..c2 are free
/// columns over 3, 4 and 3 values; c3 = c0 % 2, c4 = (c1 + c2) % 3 and
/// c5 = (c3 + c4) % 2, so {0} -> 3, {1, 2} -> 4 and {3, 4} -> 5 hold
/// exactly. With probability `noise` a row draws its planted cells at
/// random instead, which turns the planted FDs into conditional ones.
/// Odd columns hold strings, even columns integers; only the first `cols`
/// columns are kept. Few rows keep accidental FDs and keys common.
Relation RandomRelation(uint64_t seed, int rows, int cols, double noise) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    int64_t raw[6];
    raw[0] = static_cast<int64_t>(rng.Uniform(0, 2));
    raw[1] = static_cast<int64_t>(rng.Uniform(0, 3));
    raw[2] = static_cast<int64_t>(rng.Uniform(0, 2));
    bool noisy = rng.Bernoulli(noise);
    raw[3] = noisy ? static_cast<int64_t>(rng.Uniform(0, 1)) : raw[0] % 2;
    raw[4] = noisy ? static_cast<int64_t>(rng.Uniform(0, 2))
                   : (raw[1] + raw[2]) % 3;
    raw[5] = noisy ? static_cast<int64_t>(rng.Uniform(0, 1))
                   : (raw[3] + raw[4]) % 2;
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(c % 2 == 0 ? Value(raw[c])
                               : Value("v" + std::to_string(raw[c])));
    }
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

/// Row indices whose projection on `attrs` equals row `head`'s.
std::vector<int> MatchingRows(const Relation& r, int head, AttrSet attrs) {
  std::vector<int> rows;
  for (int i = 0; i < r.num_rows(); ++i) {
    if (r.AgreeOn(i, head, attrs)) rows.push_back(i);
  }
  return rows;
}

/// Does every pair of `rows` agreeing on `lhs` agree on `rhs`?
bool FdHoldsWithin(const Relation& r, const std::vector<int>& rows,
                   AttrSet lhs, int rhs) {
  return Fd(lhs, AttrSet::Single(rhs)).Holds(r.Select(rows));
}

std::vector<std::string> SortedFdKeys(const std::vector<DiscoveredFd>& fds) {
  std::vector<std::string> keys;
  for (const DiscoveredFd& fd : fds) {
    keys.push_back(fd.lhs.ToString() + "->" + std::to_string(fd.rhs));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> SortedCfdKeys(const std::vector<DiscoveredCfd>& cfds) {
  std::vector<std::string> keys;
  for (const DiscoveredCfd& c : cfds) {
    keys.push_back(c.cfd.ToString() + " #" + std::to_string(c.support));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Soundness of an exact FD list: every FD holds, and no LHS attribute can
/// be dropped (the emitted FD is minimal).
void ExpectSoundMinimalFds(const Relation& r,
                           const std::vector<DiscoveredFd>& fds,
                           const std::string& what) {
  for (const DiscoveredFd& fd : fds) {
    Fd dep(fd.lhs, AttrSet::Single(fd.rhs));
    EXPECT_TRUE(dep.Holds(r)) << what << ": " << dep.ToString();
    EXPECT_EQ(fd.error, 0.0) << what;
    for (int a : fd.lhs) {
      EXPECT_FALSE(Fd(fd.lhs.Without(a), AttrSet::Single(fd.rhs)).Holds(r))
          << what << ": non-minimal " << dep.ToString();
    }
  }
}

class BruteForceCheckerTest : public testing::TestWithParam<int> {};

// ------------------------------------------------------------------- FDs

TEST_P(BruteForceCheckerTest, FdMinersMatchNaiveEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    int cols = 4 + i % 3;  // 4..6 columns
    Relation r = RandomRelation(
        RelationSeed("FdMinersMatchNaiveEnumeration", i), 8 + 4 * i, cols,
        /*noise=*/0.0);
    // The full lattice, and a bounded one whose cap cuts below some keys.
    for (int max_lhs : {cols - 1, 2}) {
      std::string what = "relation " + std::to_string(i) + " max_lhs " +
                         std::to_string(max_lhs) + ": ";
      TaneOptions naive_options;
      naive_options.max_lhs_size = max_lhs;
      auto naive = DiscoverFdsNaive(r, naive_options);
      ASSERT_TRUE(naive.ok());
      std::vector<std::string> want = SortedFdKeys(*naive);
      ExpectSoundMinimalFds(r, *naive, what + "naive");

      PliCache cache(r);
      TaneOptions tane_options = naive_options;
      tane_options.pool = &pool;
      tane_options.cache = &cache;
      auto tane = DiscoverFdsTane(r, tane_options);
      ASSERT_TRUE(tane.ok());
      ExpectSoundMinimalFds(r, *tane, what + "tane");
      EXPECT_EQ(want, SortedFdKeys(*tane)) << what << "tane";

      FastFdOptions fastfd_options;
      fastfd_options.max_lhs_size = max_lhs;
      fastfd_options.pool = &pool;
      auto fastfd = DiscoverFdsFastFd(r, fastfd_options);
      ASSERT_TRUE(fastfd.ok());
      ExpectSoundMinimalFds(r, *fastfd, what + "fastfd");
      EXPECT_EQ(want, SortedFdKeys(*fastfd)) << what << "fastfd";

      PliCache hybrid_cache(r);
      HybridFdOptions hybrid_options;
      hybrid_options.max_lhs_size = max_lhs;
      hybrid_options.pool = &pool;
      hybrid_options.cache = &hybrid_cache;
      auto hybrid = DiscoverFdsHybrid(r, hybrid_options);
      ASSERT_TRUE(hybrid.ok());
      ExpectSoundMinimalFds(r, *hybrid, what + "hybrid");
      EXPECT_EQ(want, SortedFdKeys(*hybrid)) << what << "hybrid";
    }
  }
}

/// Order-free view of an AFD list with each g3 error spelled out exactly.
std::vector<std::string> SortedAfdKeys(const std::vector<DiscoveredFd>& fds) {
  std::vector<std::string> keys;
  for (const DiscoveredFd& fd : fds) {
    char error[32];
    std::snprintf(error, sizeof(error), "%a", fd.error);
    keys.push_back(fd.lhs.ToString() + "->" + std::to_string(fd.rhs) +
                   " g3=" + error);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Approximate TANE against the naive g3 enumeration, as sets of
// (lhs, rhs, error). The lattice prunes C+ and skips every g3 scan whose
// partition-cost bound already exceeds max_error; neither may lose or add
// an AFD. The engine run evicts every product no caller holds.
TEST_P(BruteForceCheckerTest, ApproximateTaneMatchesNaiveEnumeration) {
  constexpr int kRelations = 40;
  ThreadPool pool(GetParam());
  EngineOptions engine_options;
  engine_options.num_threads = GetParam();
  engine_options.cache_max_bytes = 1;
  DiscoveryEngine engine(engine_options);
  for (int i = 0; i < kRelations; ++i) {
    Relation r = RandomRelation(
        RelationSeed("ApproximateTaneMatchesNaiveEnumeration", i), 60,
        /*cols=*/5, /*noise=*/0.05 + 0.1 * (i % 3));
    for (double max_error : {0.02, 0.05, 0.1, 0.2, 0.35}) {
      std::string what = "relation " + std::to_string(i) + " max_error " +
                         std::to_string(max_error) + ": ";
      TaneOptions options;
      options.max_error = max_error;
      options.max_lhs_size = 3;
      auto naive = DiscoverFdsNaive(r, options);
      ASSERT_TRUE(naive.ok());
      std::vector<std::string> want = SortedAfdKeys(*naive);

      TaneOptions free_options = options;
      free_options.pool = &pool;
      auto free_run = DiscoverFdsTane(r, free_options);
      ASSERT_TRUE(free_run.ok());
      EXPECT_EQ(want, SortedAfdKeys(*free_run)) << what << "free";

      auto engine_run = engine.Tane(r, options);
      ASSERT_TRUE(engine_run.ok());
      EXPECT_EQ(want, SortedAfdKeys(*engine_run)) << what << "engine";
    }
    engine.ForgetRelation(r);
  }
}

// ------------------------------------------------------------------ CFDs

/// Constant CFDs by enumeration: for every LHS X (1 <= |X| <= max) and
/// every value combination x occurring on X with support >= min_support,
/// each attribute a outside X on which the x-rows agree (value v) yields
/// (X = x -> a = v) unless some nonempty proper X' of X already pins a = v
/// on all rows matching x on X'.
std::vector<std::string> BruteForceConstantCfds(const Relation& r,
                                                const CfdDiscoveryOptions& o) {
  std::vector<DiscoveredCfd> out;
  int nc = r.num_columns();
  for (int size = 1; size <= o.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (const auto& group : r.GroupBy(lhs)) {
        if (static_cast<int>(group.size()) < o.min_support) continue;
        int head = group[0];
        for (int a = 0; a < nc; ++a) {
          if (lhs.Contains(a)) continue;
          if (MatchingRows(r.Select(group), 0, AttrSet::Single(a)).size() !=
              group.size()) {
            continue;  // the group is not uniform on a
          }
          bool minimal = true;
          for (AttrSet sub : ProperNonEmptySubsets(lhs)) {
            std::vector<int> wider = MatchingRows(r, head, sub);
            bool pins = true;
            for (int row : wider) {
              if (!(r.Get(row, a) == r.Get(head, a))) pins = false;
            }
            if (pins) minimal = false;
          }
          if (!minimal) continue;
          std::vector<PatternItem> items;
          for (int b : lhs) items.push_back(PatternItem::Const(b, r.Get(head, b)));
          items.push_back(PatternItem::Const(a, r.Get(head, a)));
          out.push_back(DiscoveredCfd{
              Cfd(lhs, AttrSet::Single(a), PatternTuple(std::move(items))),
              static_cast<int>(group.size())});
        }
      }
    }
  }
  return SortedCfdKeys(out);
}

/// General CFDs by enumeration: for every embedded FD X -> a
/// (2 <= |X| <= max) that fails globally, and every condition C of X
/// (1 <= |C| <= max_condition_attrs) with a value combination c of support
/// >= min_support on which X -> a holds, emit (X with C = c, rest wildcards
/// -> a) unless a nonempty proper C' of C already qualifies on c's
/// projection.
std::vector<std::string> BruteForceGeneralCfds(const Relation& r,
                                               const CfdDiscoveryOptions& o) {
  std::vector<DiscoveredCfd> out;
  int nc = r.num_columns();
  std::vector<int> all_rows(r.num_rows());
  for (int i = 0; i < r.num_rows(); ++i) all_rows[i] = i;
  auto qualifies = [&](AttrSet lhs, int a, int head, AttrSet cond) {
    std::vector<int> rows = MatchingRows(r, head, cond);
    return static_cast<int>(rows.size()) >= o.min_support &&
           FdHoldsWithin(r, rows, lhs, a);
  };
  for (int size = 2; size <= o.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (lhs.Contains(a) || FdHoldsWithin(r, all_rows, lhs, a)) continue;
        int max_cond = std::min(o.max_condition_attrs, lhs.size());
        for (int cond_size = 1; cond_size <= max_cond; ++cond_size) {
          for (AttrSet cond : AllSubsetsOfSize(nc, cond_size)) {
            if (!lhs.ContainsAll(cond)) continue;
            for (const auto& group : r.GroupBy(cond)) {
              int head = group[0];
              if (!qualifies(lhs, a, head, cond)) continue;
              bool minimal = true;
              for (AttrSet sub : ProperNonEmptySubsets(cond)) {
                if (qualifies(lhs, a, head, sub)) minimal = false;
              }
              if (!minimal) continue;
              std::vector<PatternItem> items;
              for (int b : lhs) {
                items.push_back(cond.Contains(b)
                                    ? PatternItem::Const(b, r.Get(head, b))
                                    : PatternItem::Wildcard(b));
              }
              items.push_back(PatternItem::Wildcard(a));
              out.push_back(DiscoveredCfd{
                  Cfd(lhs, AttrSet::Single(a), PatternTuple(std::move(items))),
                  static_cast<int>(group.size())});
            }
          }
        }
      }
    }
  }
  return SortedCfdKeys(out);
}

void ExpectSoundCfds(const Relation& r, const std::vector<DiscoveredCfd>& cfds,
                     const std::string& what) {
  for (const DiscoveredCfd& c : cfds) {
    EXPECT_TRUE(c.cfd.Holds(r)) << what << ": " << c.cfd.ToString();
    EXPECT_EQ(c.cfd.Support(r), c.support) << what << ": " << c.cfd.ToString();
  }
}

TEST_P(BruteForceCheckerTest, ConstantCfdsMatchEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    int cols = 4 + i % 3;
    Relation r = RandomRelation(
        RelationSeed("ConstantCfdsMatchEnumeration", i), 20 + 4 * i, cols,
        /*noise=*/0.2);
    PliCache cache(r);
    CfdDiscoveryOptions options;
    options.min_support = 2 + i % 3;
    options.max_lhs_size = 3;
    options.pool = &pool;
    options.cache = &cache;
    auto cfds = DiscoverConstantCfds(r, options);
    ASSERT_TRUE(cfds.ok());
    ExpectSoundCfds(r, *cfds, "constant");
    EXPECT_EQ(BruteForceConstantCfds(r, options), SortedCfdKeys(*cfds))
        << "relation " << i;
  }
}

TEST_P(BruteForceCheckerTest, GeneralCfdsMatchEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    int cols = 4 + i % 3;
    Relation r = RandomRelation(
        RelationSeed("GeneralCfdsMatchEnumeration", i), 20 + 4 * i, cols,
        /*noise=*/0.2);
    PliCache cache(r);
    CfdDiscoveryOptions options;
    options.min_support = 2 + i % 3;
    options.max_lhs_size = 3;
    options.max_condition_attrs = 2;
    options.pool = &pool;
    options.cache = &cache;
    auto cfds = DiscoverGeneralCfds(r, options);
    ASSERT_TRUE(cfds.ok());
    ExpectSoundCfds(r, *cfds, "general");
    EXPECT_EQ(BruteForceGeneralCfds(r, options), SortedCfdKeys(*cfds))
        << "relation " << i;
  }
}

// ------------------------------------------------------------------ MVDs

// The MVD miner reports every canonical exact MVD X ->> Y (Y holds the
// smallest attribute outside X, Z = rest is nonempty), not a minimal
// cover, so the enumeration checks soundness and completeness against the
// Mvd validator; FHDs are checked for soundness.
TEST_P(BruteForceCheckerTest, MvdsMatchEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    int cols = 4 + i % 3;
    Relation r = RandomRelation(RelationSeed("MvdsMatchEnumeration", i),
                                8 + 2 * i, cols, /*noise=*/0.1);
    PliCache cache(r);
    MvdDiscoveryOptions options;
    options.max_lhs_size = 2;
    options.pool = &pool;
    options.cache = &cache;
    auto mvds = DiscoverMvds(r, options);
    ASSERT_TRUE(mvds.ok());
    std::vector<std::string> got;
    for (const DiscoveredMvd& m : *mvds) {
      EXPECT_EQ(m.spurious_ratio, 0.0);
      EXPECT_TRUE(Mvd(m.lhs, m.rhs).Holds(r))
          << Mvd(m.lhs, m.rhs).ToString();
      got.push_back(m.lhs.ToString() + m.rhs.ToString());
    }
    std::vector<std::string> want;
    AttrSet full = AttrSet::Full(cols);
    for (int size = 0; size <= options.max_lhs_size; ++size) {
      for (AttrSet lhs : AllSubsetsOfSize(cols, size)) {
        AttrSet rest = full.Minus(lhs);
        if (rest.size() < 2) continue;
        int anchor = rest.ToVector()[0];
        for (AttrSet rhs : ProperNonEmptySubsets(rest)) {
          if (!rhs.Contains(anchor)) continue;
          if (Mvd(lhs, rhs).Holds(r)) {
            want.push_back(lhs.ToString() + rhs.ToString());
          }
        }
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(want, got) << "relation " << i;

    auto fhds = DiscoverFhds(r, options);
    ASSERT_TRUE(fhds.ok());
    for (const DiscoveredFhd& f : *fhds) {
      Fhd fhd(f.lhs, f.blocks);
      EXPECT_TRUE(fhd.Holds(r)) << fhd.ToString();
    }
  }
}

// ------------------------------------------------------ PFDs and unary ODs

TEST_P(BruteForceCheckerTest, PfdsMatchEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    int cols = 4 + i % 3;
    Relation r = RandomRelation(RelationSeed("PfdsMatchEnumeration", i),
                                20 + 4 * i, cols, /*noise=*/0.2);
    PliCache cache(r);
    PfdDiscoveryOptions options;
    options.min_probability = 0.75;
    options.max_lhs_size = 2;
    options.pool = &pool;
    options.cache = &cache;
    auto pfds = DiscoverPfds(r, options);
    ASSERT_TRUE(pfds.ok());
    std::vector<std::string> got;
    for (const DiscoveredPfd& p : *pfds) {
      EXPECT_EQ(Pfd::Probability(r, p.lhs, AttrSet::Single(p.rhs)),
                p.probability);
      got.push_back(p.lhs.ToString() + "->" + std::to_string(p.rhs));
    }
    // Minimal X -> a (1 <= |X| <= max) with probability >= the bound.
    auto passes = [&](AttrSet lhs, int a) {
      return Pfd::Probability(r, lhs, AttrSet::Single(a)) >=
             options.min_probability;
    };
    std::vector<std::string> want;
    for (int size = 1; size <= options.max_lhs_size; ++size) {
      for (AttrSet lhs : AllSubsetsOfSize(cols, size)) {
        for (int a = 0; a < cols; ++a) {
          if (lhs.Contains(a) || !passes(lhs, a)) continue;
          bool minimal = true;
          for (AttrSet sub : ProperNonEmptySubsets(lhs)) {
            if (passes(sub, a)) minimal = false;
          }
          if (minimal) want.push_back(lhs.ToString() + "->" + std::to_string(a));
        }
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(want, got) << "relation " << i;
  }
}

TEST_P(BruteForceCheckerTest, UnaryOdsMatchEnumeration) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < kRelationsPerCase; ++i) {
    Rng rng(RelationSeed("UnaryOdsMatchEnumeration", i));
    RelationBuilder b({"t", "up", "down", "noise"});
    for (int row = 0; row < 20 + 4 * i; ++row) {
      int t = static_cast<int>(rng.Uniform(0, 15));
      b.AddRow({Value(t), Value(2 * t + (i % 2)), Value(100.0 - t),
                Value(static_cast<int64_t>(rng.Uniform(0, 3)))});
    }
    Relation r = std::move(b.Build()).value();
    PliCache cache(r);
    OdDiscoveryOptions options;
    options.pool = &pool;
    options.cache = &cache;
    auto ods = DiscoverUnaryOds(r, options);
    ASSERT_TRUE(ods.ok());
    std::vector<std::string> got;
    for (const DiscoveredOd& od : *ods) {
      EXPECT_TRUE(od.od.Holds(r)) << od.od.ToString();
      got.push_back(od.od.ToString());
    }
    // Per ordered pair, A^<= -> B^<= when it holds, else A^<= -> B^>=.
    std::vector<std::string> want;
    for (int a = 0; a < r.num_columns(); ++a) {
      for (int c = 0; c < r.num_columns(); ++c) {
        if (a == c) continue;
        for (OrderMark mark : {OrderMark::kLeq, OrderMark::kGeq}) {
          Od od({MarkedAttr{a, OrderMark::kLeq}}, {MarkedAttr{c, mark}});
          if (od.Holds(r)) {
            want.push_back(od.ToString());
            break;
          }
        }
      }
    }
    EXPECT_EQ(want, got) << "relation " << i;
  }
}

// ------------------------------------- soundness of the similarity miners

TEST_P(BruteForceCheckerTest, SimilarityMinersAreSound) {
  ThreadPool pool(GetParam());
  for (int i = 0; i < 3; ++i) {
    HeterogeneousConfig config;
    config.num_entities = 15 + 5 * i;
    config.max_duplicates = 3;
    config.seed = RelationSeed("SimilarityMinersAreSound", i);
    GeneratedData data = GenerateHeterogeneous(config);
    const Relation& r = data.relation;
    PliCache cache(r);

    DdDiscoveryOptions dd_options;
    dd_options.min_support = 2;
    dd_options.max_lhs_attrs = 1;
    dd_options.pool = &pool;
    dd_options.cache = &cache;
    auto dds = DiscoverDds(r, dd_options);
    ASSERT_TRUE(dds.ok());
    for (const DiscoveredDd& d : *dds) {
      EXPECT_TRUE(d.dd.Holds(r)) << d.dd.ToString();
      EXPECT_EQ(d.dd.Support(r), d.support) << d.dd.ToString();
    }

    Ned::Predicate target{4, GetAbsDiffMetric(), 0.0};
    NedDiscoveryOptions ned_options;
    ned_options.thresholds = {0, 2};
    ned_options.min_support = 2;
    ned_options.min_confidence = 0.9;
    ned_options.pool = &pool;
    ned_options.cache = &cache;
    auto neds = DiscoverNeds(r, target, ned_options);
    ASSERT_TRUE(neds.ok());
    for (const DiscoveredNed& n : *neds) {
      Ned::PairStats stats = n.ned.ComputePairStats(r);
      EXPECT_EQ(stats.lhs_pairs, n.support) << n.ned.ToString();
      EXPECT_EQ(stats.confidence(), n.confidence) << n.ned.ToString();
      EXPECT_GE(n.confidence, ned_options.min_confidence);
    }

    MdDiscoveryOptions md_options;
    md_options.min_support = 0.0005;
    md_options.min_confidence = 0.9;
    md_options.pool = &pool;
    md_options.cache = &cache;
    auto mds = DiscoverMds(r, AttrSet::Single(4), md_options);
    ASSERT_TRUE(mds.ok());
    for (const DiscoveredMd& m : *mds) {
      Md::Stats stats = m.md.ComputeStats(r);
      EXPECT_EQ(stats.support(), m.support) << m.md.ToString();
      EXPECT_EQ(stats.confidence(), m.confidence) << m.md.ToString();
    }

    MfdDiscoveryOptions mfd_options;
    mfd_options.max_delta_ratio = 0.5;
    mfd_options.pool = &pool;
    mfd_options.cache = &cache;
    auto mfds = DiscoverMfds(r, mfd_options);
    ASSERT_TRUE(mfds.ok());
    for (const DiscoveredMfd& m : *mfds) {
      EXPECT_TRUE(m.mfd.Holds(r)) << m.mfd.ToString();
    }

    FastDcOptions dc_options;
    dc_options.max_predicates = 3;
    dc_options.pool = &pool;
    auto dcs = DiscoverDcs(r, dc_options);
    ASSERT_TRUE(dcs.ok());
    for (const DiscoveredDc& d : *dcs) {
      EXPECT_EQ(d.violation_fraction, 0.0);
      EXPECT_TRUE(d.dc.Holds(r)) << d.dc.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BruteForceCheckerTest,
                         testing::ValuesIn(kThreadCounts));

}  // namespace
}  // namespace famtree
