// Property tests for the shared pairwise evidence kernel: on random
// mixed-type relations (nulls, cross-representation numerics, strings, up
// to the 63-attribute boundary), the tiled, pruned, parallel and pair-list
// builds must all produce the evidence multiset a naive Value-based double
// loop produces — same words, same counts, same per-word distance
// aggregates, bit for bit. Plus EvidenceCache hit/eviction behavior.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/fastdc.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {
namespace {

Value RandomCell(Rng* rng, int domain) {
  int64_t v = rng->Uniform(0, domain - 1);
  switch (rng->Uniform(0, 7)) {
    case 0: return Value();                              // null
    case 1: return Value(static_cast<double>(v));        // k.0 == k
    case 2: return Value(static_cast<double>(v) + 0.5);  // true double
    case 3: return Value("s" + std::to_string(v));       // string
    default: return Value(v);                            // int
  }
}

Relation MakeMixedRandomRelation(uint64_t seed, int rows, int cols,
                                 int domain) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng, domain));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

MetricPtr RandomMetric(Rng* rng) {
  switch (rng->Uniform(0, 2)) {
    case 0: return GetEditDistanceMetric();
    case 1: return GetAbsDiffMetric();
    default: return GetDiscreteMetric();
  }
}

std::vector<EvidenceColumn> RandomConfig(Rng* rng, int cols) {
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < cols; ++c) {
    if (rng->Uniform(0, 3) == 0) continue;  // leave some columns out
    EvidenceColumn col;
    col.attr = c;
    switch (rng->Uniform(0, 2)) {
      case 0: col.cmp = EvidenceColumn::Cmp::kNone; break;
      case 1: col.cmp = EvidenceColumn::Cmp::kEquality; break;
      default: col.cmp = EvidenceColumn::Cmp::kOrder; break;
    }
    if (rng->Uniform(0, 1) == 0) {
      col.metric = RandomMetric(rng);
      int nth = static_cast<int>(rng->Uniform(0, 3));
      for (int t = 0; t < nth; ++t) {
        col.thresholds.push_back(static_cast<double>(t) +
                                 (rng->Uniform(0, 1) ? 0.5 : 0.0));
      }
      col.track_max = rng->Uniform(0, 1) == 0;
      if (!col.track_max && col.thresholds.empty()) col.metric = nullptr;
    }
    // A column with no facet at all contributes nothing; keep it anyway
    // sometimes to exercise the degenerate case.
    config.push_back(std::move(col));
  }
  if (config.empty()) {
    EvidenceColumn col;
    col.attr = 0;
    config.push_back(col);
  }
  return config;
}

/// The independently computed word layout (the documented packing rule:
/// config order, comparison bits then bucket bits).
struct OracleLayout {
  int cmp_shift = 0;
  int bucket_shift = 0;
  int bucket_bits = 0;
};

std::vector<OracleLayout> LayoutOf(const std::vector<EvidenceColumn>& config) {
  std::vector<OracleLayout> lay(config.size());
  int shift = 0;
  for (size_t c = 0; c < config.size(); ++c) {
    lay[c].cmp_shift = shift;
    if (config[c].cmp == EvidenceColumn::Cmp::kEquality) shift += 1;
    if (config[c].cmp == EvidenceColumn::Cmp::kOrder) shift += 2;
    if (config[c].metric != nullptr && !config[c].thresholds.empty()) {
      lay[c].bucket_shift = shift;
      int states = static_cast<int>(config[c].thresholds.size()) + 1;
      while ((1 << lay[c].bucket_bits) < states) ++lay[c].bucket_bits;
      shift += lay[c].bucket_bits;
    }
  }
  return lay;
}

struct OracleAgg {
  double max_all = 0.0;
  double max_finite = 0.0;
  bool saw_nonfinite = false;
};

struct OracleEntry {
  int64_t count = 0;
  std::vector<OracleAgg> aggs;
};

/// Naive double-loop oracle straight off the Value interface.
uint64_t OracleWord(const Relation& r,
                    const std::vector<EvidenceColumn>& config,
                    const std::vector<OracleLayout>& lay, int i, int j,
                    std::vector<double>* dists) {
  uint64_t w = 0;
  dists->clear();
  for (size_t c = 0; c < config.size(); ++c) {
    const Value& a = r.Get(i, config[c].attr);
    const Value& b = r.Get(j, config[c].attr);
    if (config[c].cmp == EvidenceColumn::Cmp::kEquality) {
      w |= static_cast<uint64_t>(!(a == b)) << lay[c].cmp_shift;
    } else if (config[c].cmp == EvidenceColumn::Cmp::kOrder) {
      if (!(a == b)) {
        w |= static_cast<uint64_t>(a < b ? 1 : 2) << lay[c].cmp_shift;
      }
    }
    if (config[c].metric != nullptr) {
      double d = config[c].metric->Distance(a, b);
      if (!config[c].thresholds.empty()) {
        uint64_t bucket = config[c].thresholds.size();
        for (size_t t = 0; t < config[c].thresholds.size(); ++t) {
          if (d <= config[c].thresholds[t]) {
            bucket = t;
            break;
          }
        }
        w |= bucket << lay[c].bucket_shift;
      }
      if (config[c].track_max) dists->push_back(d);
    }
  }
  return w;
}

std::map<uint64_t, OracleEntry> OracleEvidence(
    const Relation& r, const std::vector<EvidenceColumn>& config) {
  std::vector<OracleLayout> lay = LayoutOf(config);
  std::map<uint64_t, OracleEntry> out;
  int tracked = 0;
  for (const EvidenceColumn& c : config) {
    if (c.track_max) ++tracked;
  }
  std::vector<double> dists;
  for (int i = 0; i + 1 < r.num_rows(); ++i) {
    for (int j = i + 1; j < r.num_rows(); ++j) {
      uint64_t w = OracleWord(r, config, lay, i, j, &dists);
      OracleEntry& e = out[w];
      if (e.aggs.empty()) e.aggs.resize(tracked);
      ++e.count;
      for (int t = 0; t < tracked; ++t) {
        double d = dists[t];
        e.aggs[t].max_all = std::max(e.aggs[t].max_all, d);
        if (std::isfinite(d)) {
          e.aggs[t].max_finite = std::max(e.aggs[t].max_finite, d);
        } else {
          e.aggs[t].saw_nonfinite = true;
        }
      }
    }
  }
  return out;
}

void ExpectMatchesOracle(const EvidenceSet& set,
                         const std::map<uint64_t, OracleEntry>& oracle,
                         const std::string& label) {
  ASSERT_EQ(set.words().size(), oracle.size()) << label;
  size_t idx = 0;
  for (const auto& [w, entry] : oracle) {
    const EvidenceSet::Word& word = set.words()[idx];
    EXPECT_EQ(word.bits, w) << label << " word " << idx;
    EXPECT_EQ(word.count, entry.count) << label << " word " << idx;
    for (int t = 0; t < set.num_tracked(); ++t) {
      const EvidenceSet::Aggregate& a = set.agg(idx, t);
      EXPECT_EQ(a.max_all, entry.aggs[t].max_all)
          << label << " word " << idx << " slot " << t;
      EXPECT_EQ(a.max_finite, entry.aggs[t].max_finite)
          << label << " word " << idx << " slot " << t;
      EXPECT_EQ(a.saw_nonfinite, entry.aggs[t].saw_nonfinite)
          << label << " word " << idx << " slot " << t;
    }
    ++idx;
  }
}

TEST(EvidencePropertyTest, TiledAndParallelBuildsMatchNaiveOracle) {
  ThreadPool pool2(2), pool8(8);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    int rows = 8 + static_cast<int>(seed % 7) * 9;
    int cols = 2 + static_cast<int>(seed % 5);
    int domain = 2 + static_cast<int>(seed % 6);
    Relation r = MakeMixedRandomRelation(seed, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0xfeedfaceULL);
    std::vector<EvidenceColumn> config = RandomConfig(&rng, cols);
    std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);

    EvidenceOptions serial;
    serial.tile_rows = 1 + static_cast<int>(seed % 16);  // odd tile shapes
    auto s = BuildEvidence(enc, config, serial);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ExpectMatchesOracle(**s, oracle, "serial seed " + std::to_string(seed));
    EXPECT_EQ((*s)->total_pairs(),
              static_cast<int64_t>(rows) * (rows - 1) / 2);

    for (ThreadPool* pool : {&pool2, &pool8}) {
      EvidenceOptions popt;
      popt.pool = pool;
      auto p = BuildEvidence(enc, config, popt);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ExpectMatchesOracle(**p, oracle,
                          "pooled seed " + std::to_string(seed));
    }
  }
}

TEST(EvidencePropertyTest, PrunedBuildMatchesDenseAndOracle) {
  ThreadPool pool8(8);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    int rows = 10 + static_cast<int>(seed % 6) * 13;
    int cols = 2 + static_cast<int>(seed % 4);
    int domain = 2 + static_cast<int>(seed % 7);
    Relation r = MakeMixedRandomRelation(seed * 31 + 7, rows, cols, domain);
    EncodedRelation enc(r);
    Rng rng(seed ^ 0x0ddba11ULL);
    // Pruning-eligible configs: equality facets, optional tracked metric.
    std::vector<EvidenceColumn> config;
    for (int c = 0; c < cols; ++c) {
      EvidenceColumn col;
      col.attr = c;
      col.cmp = EvidenceColumn::Cmp::kEquality;
      if (rng.Uniform(0, 2) == 0) {
        col.metric = RandomMetric(&rng);
        col.track_max = true;
      }
      config.push_back(std::move(col));
    }
    std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);
    // The synthesized all-unequal word carries zero aggregates by contract;
    // blank the oracle's aggregates for that word before comparing.
    uint64_t all_unequal = (uint64_t{1} << cols) - 1;
    auto it = oracle.find(all_unequal);
    if (it != oracle.end()) {
      for (OracleAgg& a : it->second.aggs) a = OracleAgg{};
    }

    PliCache pli(r);
    for (bool use_pli : {false, true}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool8}) {
        EvidenceOptions opt;
        opt.prune_all_unequal = true;
        opt.pool = pool;
        opt.pli = use_pli ? &pli : nullptr;
        auto p = BuildEvidence(enc, config, opt);
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        ExpectMatchesOracle(
            **p, oracle,
            "pruned seed " + std::to_string(seed) +
                (use_pli ? " pli" : " local") + (pool ? " pooled" : ""));
      }
    }
  }
}

TEST(EvidencePropertyTest, PairListMatchesUnorderedPlusMirror) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    int rows = 6 + static_cast<int>(seed % 5) * 7;
    int cols = 2 + static_cast<int>(seed % 4);
    Relation r = MakeMixedRandomRelation(seed * 17 + 3, rows, cols, 4);
    EncodedRelation enc(r);
    std::vector<EvidenceColumn> config;
    for (int c = 0; c < cols; ++c) {
      EvidenceColumn col;
      col.attr = c;
      col.cmp = c % 2 == 0 ? EvidenceColumn::Cmp::kOrder
                           : EvidenceColumn::Cmp::kEquality;
      config.push_back(col);
    }
    // All ordered pairs i != j ...
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < rows; ++j) {
        if (i != j) pairs.push_back({i, j});
      }
    }
    auto listed = BuildEvidenceForPairs(enc, config, pairs, {});
    ASSERT_TRUE(listed.ok());
    // ... must equal the unordered multiset plus its mirror.
    auto unordered = BuildEvidence(enc, config, {});
    ASSERT_TRUE(unordered.ok());
    std::map<uint64_t, int64_t> expected;
    for (const EvidenceSet::Word& w : (*unordered)->words()) {
      expected[w.bits] += w.count;
      expected[(*unordered)->MirrorOf(w.bits)] += w.count;
    }
    ASSERT_EQ((*listed)->words().size(), expected.size()) << "seed " << seed;
    size_t idx = 0;
    for (const auto& [bits, count] : expected) {
      EXPECT_EQ((*listed)->words()[idx].bits, bits) << "seed " << seed;
      EXPECT_EQ((*listed)->words()[idx].count, count) << "seed " << seed;
      ++idx;
    }
    EXPECT_EQ((*listed)->total_pairs(),
              static_cast<int64_t>(pairs.size()));
  }
}

/// The serial pair stream a PairSample stands for, materialized the plain
/// way: one Rng, `draws` draws of (i, j), self pairs rejected.
std::vector<std::pair<int, int>> MaterializedSample(PairSample sample,
                                                    int rows) {
  std::vector<std::pair<int, int>> pairs;
  Rng rng(sample.seed);
  for (int64_t s = 0; s < sample.draws; ++s) {
    int i = static_cast<int>(rng.Uniform(0, rows - 1));
    int j = static_cast<int>(rng.Uniform(0, rows - 1));
    if (i != j) pairs.push_back({i, j});
  }
  return pairs;
}

void ExpectSameWords(const EvidenceSet& got, const EvidenceSet& want,
                     const std::string& what) {
  EXPECT_EQ(got.total_pairs(), want.total_pairs()) << what;
  ASSERT_EQ(got.words().size(), want.words().size()) << what;
  for (size_t w = 0; w < got.words().size(); ++w) {
    EXPECT_EQ(got.words()[w].bits, want.words()[w].bits) << what << " @" << w;
    EXPECT_EQ(got.words()[w].count, want.words()[w].count)
        << what << " @" << w;
  }
}

TEST(EvidencePropertyTest, StreamedSampleMatchesMaterializedPairList) {
  ThreadPool pool8(8);
  // Draw counts straddling the block size, and relations small enough that
  // self pairs are a large share of the draws (all of them at one row).
  const int64_t kBlock = kPairSampleBlockDraws;
  const std::vector<int64_t> draw_counts = {0, 1, 7, kBlock - 1, kBlock,
                                            2 * kBlock + 17};
  for (int rows : {1, 2, 3, 45}) {
    Relation r = MakeMixedRandomRelation(500 + rows, rows, 3, 4);
    EncodedRelation enc(r);
    std::vector<EvidenceColumn> config(3);
    for (int c = 0; c < 3; ++c) {
      config[c].attr = c;
      config[c].cmp = c == 1 ? EvidenceColumn::Cmp::kEquality
                             : EvidenceColumn::Cmp::kOrder;
    }
    for (int64_t draws : draw_counts) {
      PairSample sample{77 + static_cast<uint64_t>(draws), draws};
      std::vector<std::pair<int, int>> pairs = MaterializedSample(sample, rows);
      std::string what =
          "rows " + std::to_string(rows) + " draws " + std::to_string(draws);
      if (rows < 2) EXPECT_TRUE(pairs.empty()) << what;
      if (rows == 2 && draws > 100) {
        EXPECT_LT(static_cast<int64_t>(pairs.size()), draws) << what;
      }
      auto listed = BuildEvidenceForPairs(enc, config, pairs, {});
      ASSERT_TRUE(listed.ok()) << what;
      EXPECT_EQ((*listed)->total_pairs(), static_cast<int64_t>(pairs.size()))
          << what;
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool8}) {
        EvidenceOptions opt;
        opt.pool = pool;
        auto streamed = BuildEvidenceForSample(enc, config, sample, opt);
        ASSERT_TRUE(streamed.ok()) << what;
        ExpectSameWords(**streamed, **listed,
                        what + (pool != nullptr ? " pooled" : " serial"));
      }
      // The stream itself, block by block, is the materialized list.
      PairSampleStream stream(sample, rows);
      std::vector<std::pair<int, int>> block, joined;
      int blocks = 0;
      while (stream.Next(&block)) {
        ++blocks;
        joined.insert(joined.end(), block.begin(), block.end());
      }
      EXPECT_TRUE(block.empty()) << what;
      EXPECT_EQ(joined, pairs) << what;
      if (rows >= 2) {
        EXPECT_EQ(blocks, (draws + kBlock - 1) / kBlock) << what;
      }
    }
  }
}

/// A relation exercising every facet kind the key table touches or
/// bypasses: an int order column, a string equality column, an
/// all-distinct id column (a constant equality facet, no key), a numeric
/// column with AbsDiff buckets only, an order column with a tracked AbsDiff
/// maximum, and a string column with tracked, bucketed edit distances. The
/// numeric columns hold nulls and strings too, so some distances are not
/// finite.
Relation MakeKernelRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"ord", "eq", "id", "bucket", "ord_max", "text"});
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value(rng.Uniform(0, 6)));
    row.push_back(Value("e" + std::to_string(rng.Uniform(0, 3))));
    row.push_back(Value(int64_t{r}));
    row.push_back(RandomCell(&rng, 9));
    row.push_back(RandomCell(&rng, 5));
    row.push_back(Value("t" + std::to_string(rng.Uniform(0, 40))));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

std::vector<EvidenceColumn> KernelConfig() {
  std::vector<EvidenceColumn> config(6);
  for (int c = 0; c < 6; ++c) config[c].attr = c;
  config[0].cmp = EvidenceColumn::Cmp::kOrder;
  config[1].cmp = EvidenceColumn::Cmp::kEquality;
  config[2].cmp = EvidenceColumn::Cmp::kEquality;
  config[3].cmp = EvidenceColumn::Cmp::kNone;
  config[3].metric = GetAbsDiffMetric();
  config[3].thresholds = {0.5, 2.0, 4.0};
  config[4].cmp = EvidenceColumn::Cmp::kOrder;
  config[4].metric = GetAbsDiffMetric();
  config[4].track_max = true;
  config[5].cmp = EvidenceColumn::Cmp::kEquality;
  config[5].metric = GetEditDistanceMetric();
  config[5].thresholds = {1.0};
  config[5].track_max = true;
  return config;
}

/// The reference the keyed walks must reproduce: PairComparator::Word —
/// which reads every facet from the column code arrays — folded serially
/// over the same ordered pairs.
std::map<uint64_t, OracleEntry> ColumnWordFold(
    const EncodedRelation& enc, const std::vector<EvidenceColumn>& config,
    const std::vector<std::pair<int, int>>& pairs) {
  auto pc = PairComparator::Make(enc, config, nullptr);
  EXPECT_TRUE(pc.ok());
  const int tracked = (*pc)->num_tracked();
  std::vector<double> td(std::max(1, tracked));
  std::map<uint64_t, OracleEntry> out;
  for (auto [i, j] : pairs) {
    OracleEntry& e = out[(*pc)->Word(i, j, td.data())];
    if (e.aggs.empty()) e.aggs.resize(tracked);
    ++e.count;
    for (int t = 0; t < tracked; ++t) {
      e.aggs[t].max_all = std::max(e.aggs[t].max_all, td[t]);
      if (std::isfinite(td[t])) {
        e.aggs[t].max_finite = std::max(e.aggs[t].max_finite, td[t]);
      } else {
        e.aggs[t].saw_nonfinite = true;
      }
    }
  }
  return out;
}

TEST(EvidenceKernelTest, KeyedWalksMatchTheColumnWordFold) {
  const int rows = 240;
  Relation r = MakeKernelRelation(91, rows);
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config = KernelConfig();
  ASSERT_EQ(enc.dict_size(2), rows);  // the id column is all-distinct
  auto pc = PairComparator::Make(enc, config, nullptr);
  ASSERT_TRUE(pc.ok());
  // Keys for ord, eq, ord_max and text; none for the id or bucket columns.
  EXPECT_EQ((*pc)->key_width(), 4);

  // An explicit list with repeats and self pairs, and a sample spanning
  // several draw blocks.
  Rng rng(5);
  std::vector<std::pair<int, int>> listed;
  for (int p = 0; p < 20000; ++p) {
    listed.push_back({static_cast<int>(rng.Uniform(0, rows - 1)),
                      static_cast<int>(rng.Uniform(0, rows - 1))});
  }
  const PairSample sample{17, 3 * kPairSampleBlockDraws + 5};
  const auto listed_ref = ColumnWordFold(enc, config, listed);
  const auto sample_ref =
      ColumnWordFold(enc, config, MaterializedSample(sample, rows));

  ThreadPool pool1(1), pool2(2), pool8(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &pool1, &pool2, &pool8}) {
    const std::string what =
        pool == nullptr ? "serial"
                        : std::to_string(pool->num_threads()) + " threads";
    EvidenceOptions opt;
    opt.pool = pool;
    auto from_list = BuildEvidenceForPairs(enc, config, listed, opt);
    ASSERT_TRUE(from_list.ok()) << what;
    EXPECT_EQ((*from_list)->total_pairs(),
              static_cast<int64_t>(listed.size()));
    ExpectMatchesOracle(**from_list, listed_ref, "pair list " + what);
    auto from_sample = BuildEvidenceForSample(enc, config, sample, opt);
    ASSERT_TRUE(from_sample.ok()) << what;
    ExpectMatchesOracle(**from_sample, sample_ref, "sample " + what);
  }
}

TEST(EvidenceKernelTest, KeyTableChargeStopsTheSampledFastDcWhole) {
  // Eight integer columns: FASTDC's kernel config is one order facet each,
  // so the key table holds 8 uint32 keys per row.
  const int rows = 400, cols = 8;
  Rng rng(3);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) row.push_back(Value(rng.Uniform(0, 9)));
    b.AddRow(std::move(row));
  }
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config(cols);
  for (int c = 0; c < cols; ++c) {
    config[c].attr = c;
    config[c].cmp = EvidenceColumn::Cmp::kOrder;
  }
  const size_t key_bytes = size_t{rows} * cols * sizeof(uint32_t);
  FastDcOptions options;
  options.max_predicates = 3;
  options.max_rows_exact = 50;  // 400 rows: the sampled path
  const PairSample sample{options.seed, 50 * 50};
  const std::string key = EvidenceCache::KeyForSample(enc, config, sample);

  for (int threads : {1, 2, 8}) {
    const std::string what = std::to_string(threads) + " threads";
    ThreadPool pool(threads);
    EvidenceCache cache;
    MemoryBudget budget(key_bytes - 1);
    RunContext ctx;
    ctx.set_memory_budget(&budget);
    FastDcOptions limited = options;
    limited.pool = &pool;
    limited.evidence = &cache;
    limited.context = &ctx;
    auto dcs = DiscoverDcs(r, limited);
    ASSERT_TRUE(dcs.ok()) << what;
    EXPECT_TRUE(dcs->empty()) << what << ": a partial cover was returned";
    EXPECT_TRUE(ctx.report().exhausted) << what;
    EXPECT_EQ(RunContext::StopStatus(&ctx).code(),
              StatusCode::kResourceExhausted)
        << what;
    EXPECT_NE(ctx.report().stop_detail.find("evidence_keys"),
              std::string::npos)
        << what << ": " << ctx.report().stop_detail;
    EXPECT_EQ(cache.Lookup(key), nullptr) << what;
    EXPECT_EQ(cache.stats().builds, 0) << what;
    EXPECT_EQ(cache.stats().bytes, size_t{0}) << what;

    // The evidence entry point itself hands back the stop, not a set.
    RunContext direct_ctx;
    MemoryBudget direct_budget(key_bytes - 1);
    direct_ctx.set_memory_budget(&direct_budget);
    EvidenceOptions eopts;
    eopts.pool = &pool;
    eopts.context = &direct_ctx;
    auto set = GetOrBuildEvidence(&cache, enc, config, sample, eopts);
    ASSERT_FALSE(set.ok()) << what;
    EXPECT_EQ(set.status().code(), StatusCode::kResourceExhausted) << what;
    EXPECT_EQ(cache.stats().bytes, size_t{0}) << what;

    // With room for the table, the build succeeds and the table's bytes are
    // refunded once it is freed: only the multiset stays charged.
    RunContext ok_ctx;
    MemoryBudget ok_budget(key_bytes + (size_t{1} << 20));
    ok_ctx.set_memory_budget(&ok_budget);
    eopts.context = &ok_ctx;
    auto built = BuildEvidenceForSample(enc, config, sample, eopts);
    ASSERT_TRUE(built.ok()) << what;
    EXPECT_EQ(ok_budget.used(), (*built)->footprint_bytes()) << what;
  }
}

TEST(EvidenceCacheTest, CountsOnlyScratchBuildsAndPressureEvictions) {
  Relation r = MakeMixedRandomRelation(21, 40, 3, 4);
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config(2);
  config[0].attr = 0;
  config[1].attr = 1;
  EvidenceCache cache;
  auto set = BuildEvidence(enc, config, {});
  ASSERT_TRUE(set.ok());
  const std::string key = EvidenceCache::KeyFor(enc, config);
  auto first = cache.Insert(key, *set, config, enc.num_rows());
  // A racing thread's losing insert is not a second build.
  auto again = BuildEvidence(enc, config, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.Insert(key, *again, config, enc.num_rows()).get(),
            first.get());
  EXPECT_EQ(cache.stats().builds, 1);
  // Forgetting the relation is not an eviction.
  cache.EraseFingerprint(EncodingFingerprint(enc));
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().bytes, size_t{0});
}

TEST(EvidencePropertyTest, WideRelationUsesSparsePathCorrectly) {
  // 63 equality facets push the word to 63 bits — far past the dense
  // accumulator — and still must match the oracle.
  const int kCols = 63, kRows = 24;
  Rng rng(4242);
  std::vector<std::string> names;
  for (int c = 0; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < kRows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < kCols; ++c) {
      row.push_back(Value(rng.Uniform(0, 2)));
    }
    b.AddRow(std::move(row));
  }
  Relation r = std::move(b.Build()).value();
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < kCols; ++c) {
    EvidenceColumn col;
    col.attr = c;
    config.push_back(col);
  }
  EXPECT_EQ(EvidenceWordBits(config), 63);
  std::map<uint64_t, OracleEntry> oracle = OracleEvidence(r, config);
  ThreadPool pool8(8);
  EvidenceOptions opt;
  opt.pool = &pool8;
  auto s = BuildEvidence(enc, config, opt);
  ASSERT_TRUE(s.ok());
  ExpectMatchesOracle(**s, oracle, "wide");
  // One more facet would overflow the word; the kernel must refuse.
  config.push_back(config.back());
  config.back().cmp = EvidenceColumn::Cmp::kOrder;
  EXPECT_FALSE(BuildEvidence(enc, config, {}).ok());
}

TEST(EvidenceCacheTest, HitsMissesAndSharedEntries) {
  Relation r = MakeMixedRandomRelation(99, 40, 3, 4);
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config;
  for (int c = 0; c < 3; ++c) {
    EvidenceColumn col;
    col.attr = c;
    config.push_back(col);
  }
  EvidenceCache cache;
  auto first = GetOrBuildEvidence(&cache, enc, config, {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  auto second = GetOrBuildEvidence(&cache, enc, config, {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(first.value().get(), second.value().get());  // same object
  // A different config is a different entry.
  config.pop_back();
  auto third = GetOrBuildEvidence(&cache, enc, config, {});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_NE(first.value().get(), third.value().get());
}

TEST(EvidenceCacheTest, KeySensitivity) {
  Relation r1 = MakeMixedRandomRelation(7, 20, 2, 3);
  Relation r2 = r1;
  r2.Set(3, 1, Value("changed"));
  EncodedRelation e1(r1), e2(r2);
  std::vector<EvidenceColumn> config(1);
  config[0].attr = 0;
  EXPECT_NE(EvidenceCache::KeyFor(e1, config),
            EvidenceCache::KeyFor(e2, config));
  EXPECT_EQ(EvidenceCache::KeyFor(e1, config),
            EvidenceCache::KeyFor(EncodedRelation(r1), config));
  // Same codes (all values distinct, first-occurrence order), reversed
  // values: the order facet differs, so the key must too.
  RelationBuilder up({"a"}), down({"a"});
  for (int i = 0; i < 10; ++i) {
    up.AddRow({Value(i)});
    down.AddRow({Value(10 - i)});
  }
  EncodedRelation e_up(std::move(up.Build()).value());
  EncodedRelation e_down(std::move(down.Build()).value());
  ASSERT_EQ(e_up.codes(0), e_down.codes(0));
  EXPECT_NE(EvidenceCache::KeyFor(e_up, config),
            EvidenceCache::KeyFor(e_down, config));
  // Distance config is part of the key down to threshold bit patterns.
  std::vector<EvidenceColumn> with_metric = config;
  with_metric[0].metric = GetEditDistanceMetric();
  with_metric[0].thresholds = {1.0};
  EXPECT_NE(EvidenceCache::KeyFor(e1, config),
            EvidenceCache::KeyFor(e1, with_metric));
  std::vector<EvidenceColumn> other_threshold = with_metric;
  other_threshold[0].thresholds = {2.0};
  EXPECT_NE(EvidenceCache::KeyFor(e1, with_metric),
            EvidenceCache::KeyFor(e1, other_threshold));
}

TEST(EvidenceCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  Relation r = MakeMixedRandomRelation(11, 30, 4, 5);
  EncodedRelation enc(r);
  EvidenceCache::Options tiny;
  tiny.max_bytes = 1;  // any second entry forces an eviction
  EvidenceCache cache(tiny);
  for (int c = 0; c < 3; ++c) {
    std::vector<EvidenceColumn> config(1);
    config[0].attr = c;
    ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, config, {}).ok());
  }
  EvidenceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_GE(stats.evictions, 2);
  // The most recent entry survives; older ones rebuild as misses.
  std::vector<EvidenceColumn> config(1);
  config[0].attr = 2;
  ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, config, {}).ok());
  EXPECT_EQ(cache.stats().hits, 1);
  config[0].attr = 0;
  ASSERT_TRUE(GetOrBuildEvidence(&cache, enc, config, {}).ok());
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(EvidenceCacheTest, SampledEntriesAreKeyedBySeedAndDraws) {
  Relation r = MakeMixedRandomRelation(123, 60, 3, 4);
  EncodedRelation enc(r);
  std::vector<EvidenceColumn> config(3);
  for (int c = 0; c < 3; ++c) config[c].attr = c;
  PairSample sample{9, 500};
  const std::string key = EvidenceCache::KeyForSample(enc, config, sample);
  const std::string all_pairs = EvidenceCache::KeyFor(enc, config);
  // Same fingerprint prefix (append / forget select by it), distinct from
  // the all-pairs entry and from any other seed or draw count.
  EXPECT_EQ(key.compare(0, 16, all_pairs, 0, 16), 0);
  EXPECT_NE(key, all_pairs);
  EXPECT_NE(key, EvidenceCache::KeyForSample(enc, config, PairSample{10, 500}));
  EXPECT_NE(key, EvidenceCache::KeyForSample(enc, config, PairSample{9, 501}));

  EvidenceCache cache;
  auto first = GetOrBuildEvidence(&cache, enc, config, sample, {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1);
  auto second = GetOrBuildEvidence(&cache, enc, config, sample, {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(first.value().get(), second.value().get());
  auto direct = BuildEvidenceForSample(enc, config, sample, {});
  ASSERT_TRUE(direct.ok());
  ExpectSameWords(**second, **direct, "cached sample");
  // The all-pairs build of the same config is a separate entry.
  auto exact = GetOrBuildEvidence(&cache, enc, config, {});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(cache.stats().misses, 2);
}

}  // namespace
}  // namespace famtree
