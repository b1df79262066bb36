// Differential tests for the algorithms on the unified fast path (encoded
// substrate + shared PLI cache + engine thread pool): for thread counts
// {1, 2, 8}, every miner and quality application must reproduce the output
// of its serial Value-based oracle, with and without a PliCache. The
// oracle's outputs on these exact inputs are frozen under tests/golden/
// (see tests/golden.h); each configuration's canonical text must equal its
// case's file byte for byte.
//
// Seeding convention: every generator seed in this file derives from
// CaseSeed("<TestCaseName>") — a stable FNV-1a hash of the case name —
// instead of a hand-picked literal. That keeps seeds unique per case and
// stable under test reordering, insertion and renumbering (a renamed case
// deliberately gets new data), and makes the seed for any case
// reconstructible from its name alone. A case needing several independent
// streams appends a suffix: CaseSeed("Name/aux").

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "metric/metric.h"
#include "relation/csv.h"
#include "golden.h"

namespace famtree {
namespace {

const int kThreadCounts[] = {1, 2, 8};

/// Stable seed for a named test case: 64-bit FNV-1a over the name. Pure
/// arithmetic on the bytes, so the value never depends on compiler,
/// platform or test order — see the seeding convention in the file header.
constexpr uint64_t CaseSeed(const char* name) {
  uint64_t h = 14695981039346656037ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Expects `result`'s canonical text to equal golden file `name`.
template <typename T>
void ExpectGolden(const std::string& name, const T& result,
                  const std::string& config) {
  bool found = false;
  std::string want = golden::Read(name, &found);
  ASSERT_TRUE(found) << "missing golden file " << golden::Path(name);
  EXPECT_EQ(want, golden::Document(result))
      << name << " under config " << config;
}

/// Configurations every ported algorithm is checked under, against the
/// golden oracle output: serial, pooled, and the full fast path
/// (pool + cache).
template <typename Options>
std::vector<std::pair<std::string, Options>> FastConfigs(Options base,
                                                         ThreadPool* pool,
                                                         PliCache* cache) {
  std::vector<std::pair<std::string, Options>> configs;
  configs.push_back({"serial", base});
  Options pooled = base;
  pooled.pool = pool;
  configs.push_back({"pool", pooled});
  Options full = pooled;
  full.cache = cache;
  configs.push_back({"pool+cache", full});
  return configs;
}

/// Extra configurations for the miners rewired through the shared pairwise
/// evidence kernel (FastConfigs' entries already run the kernel —
/// use_evidence defaults on): the pre-kernel encoded walks with the kernel
/// switched off, and the full fast path with a shared EvidenceCache
/// attached, run twice so the second pass is served from the cache.
template <typename Options>
std::vector<std::pair<std::string, Options>> EvidenceConfigs(
    Options base, ThreadPool* pool, PliCache* cache,
    EvidenceCache* evidence) {
  std::vector<std::pair<std::string, Options>> configs;
  Options no_kernel = base;
  no_kernel.use_evidence = false;
  configs.push_back({"encoded-no-kernel", no_kernel});
  no_kernel.pool = pool;
  no_kernel.cache = cache;
  configs.push_back({"encoded+pool-no-kernel", no_kernel});
  Options cached = base;
  cached.pool = pool;
  cached.cache = cache;
  cached.evidence = evidence;
  configs.push_back({"evidence-cache-build", cached});
  configs.push_back({"evidence-cache-hit", cached});
  return configs;
}

Relation SensorSeries(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"t", "v", "grp"});
  double v = 100.0;
  for (int i = 0; i < rows; ++i) {
    v += rng.Uniform(0, 6) - 3.0;
    if (i % 17 == 0) v += 40.0;  // occasional spikes
    // Duplicate timestamps now and then to exercise sort ties.
    b.AddRow({Value(i - (i % 11 == 0 ? 1 : 0)), Value(v),
              Value(static_cast<int64_t>(rng.Uniform(0, 2)))});
  }
  return std::move(b.Build()).value();
}

Relation ConflictRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"name", "addr", "region"});
  for (int i = 0; i < rows; ++i) {
    b.AddRow({Value("h" + std::to_string(rng.Uniform(0, 7))),
              Value("a" + std::to_string(rng.Uniform(0, 5))),
              Value(rng.Bernoulli(0.5) ? "Boston" : "Chicago")});
  }
  return std::move(b.Build()).value();
}

class PortedDeterminismTest : public testing::TestWithParam<int> {};

// ------------------------------------------------------------- miners

TEST_P(PortedDeterminismTest, ConstantCfdsMatchOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 40;
  config.error_rate = 0.05;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  CfdDiscoveryOptions base;
  base.min_support = 2;
  base.max_lhs_size = 2;
  for (const auto& [name, options] : FastConfigs(base, &pool, &cache)) {
    auto fast = DiscoverConstantCfds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("ConstantCfds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, GeneralCfdsMatchOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 40;
  config.error_rate = 0.08;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  CfdDiscoveryOptions base;
  base.min_support = 2;
  base.max_lhs_size = 2;
  for (const auto& [name, options] : FastConfigs(base, &pool, &cache)) {
    auto fast = DiscoverGeneralCfds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("GeneralCfds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, GreedyTableauMatchesOracle) {
  ThreadPool pool(GetParam());
  Rng rng(CaseSeed("GreedyTableauMatchesOracle"));
  RelationBuilder b({"country", "zipcode", "street"});
  for (int r = 0; r < 150; ++r) {
    bool uk = rng.Bernoulli(0.5);
    int zip = static_cast<int>(rng.Uniform(0, 30));
    std::string street = uk ? "s" + std::to_string(zip)
                            : "s" + std::to_string(rng.Uniform(0, 40));
    b.AddRow({Value(uk ? "UK" : "US"), Value(zip), Value(street)});
  }
  Relation r = std::move(b.Build()).value();
  PliCache cache(r);
  for (const auto& [name, options] :
       FastConfigs(TableauOptions{}, &pool, &cache)) {
    auto fast = BuildGreedyTableau(r, AttrSet::Of({0, 1}), 2, 0, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("GreedyTableau", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, UnaryOdsMatchOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 60;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  for (const auto& [name, options] :
       FastConfigs(OdDiscoveryOptions{}, &pool, &cache)) {
    auto fast = DiscoverUnaryOds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("UnaryOds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, MvdsAndFhdsMatchOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 25;
  config.rows_per_hotel = 3;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  MvdDiscoveryOptions base;
  base.max_spurious_ratio = 0.1;
  for (const auto& [name, options] : FastConfigs(base, &pool, &cache)) {
    auto fast = DiscoverMvds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Mvds", *fast, name);
    auto fast_fhds = DiscoverFhds(data.relation, options);
    ASSERT_TRUE(fast_fhds.ok()) << name;
    ExpectGolden("Fhds", *fast_fhds, name);
  }
}

TEST_P(PortedDeterminismTest, PfdsMatchOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 50;
  config.error_rate = 0.05;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  PfdDiscoveryOptions base;
  base.min_probability = 0.8;
  base.max_lhs_size = 2;
  for (const auto& [name, options] : FastConfigs(base, &pool, &cache)) {
    auto fast = DiscoverPfds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Pfds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, DdsMatchOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 25;
  config.max_duplicates = 3;
  config.seed = CaseSeed("DdsMatchOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  DdDiscoveryOptions base;
  base.min_support = 2;
  base.max_lhs_attrs = 1;
  EvidenceCache evidence;
  auto configs = FastConfigs(base, &pool, &cache);
  for (auto& c : EvidenceConfigs(base, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverDds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Dds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, SampledDdsMatchOracle) {
  // Sampling re-materializes the input, so the fast path must build a
  // local encoding rather than borrow the cache's.
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 60;
  config.seed = CaseSeed("SampledDdsMatchOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  DdDiscoveryOptions base;
  base.min_support = 2;
  base.max_lhs_attrs = 1;
  base.sample_rows = 40;
  EvidenceCache evidence;
  auto configs = FastConfigs(base, &pool, &cache);
  for (auto& c : EvidenceConfigs(base, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverDds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("SampledDds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, NedsMatchOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 25;
  config.seed = CaseSeed("NedsMatchOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  Ned::Predicate target{4, GetAbsDiffMetric(), 0.0};
  NedDiscoveryOptions base;
  base.thresholds = {0, 2};
  base.min_support = 2;
  base.min_confidence = 0.9;
  EvidenceCache evidence;
  auto configs = FastConfigs(base, &pool, &cache);
  for (auto& c : EvidenceConfigs(base, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverNeds(data.relation, target, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Neds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, MdsMatchOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 25;
  config.max_duplicates = 3;
  config.seed = CaseSeed("MdsMatchOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  MdDiscoveryOptions base;
  base.min_support = 0.0005;
  base.min_confidence = 0.9;
  base.max_lhs_attrs = 2;
  EvidenceCache evidence;
  auto configs = FastConfigs(base, &pool, &cache);
  for (auto& c : EvidenceConfigs(base, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverMds(data.relation, AttrSet::Single(4), options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Mds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, MfdsMatchOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 25;
  config.seed = CaseSeed("MfdsMatchOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  MfdDiscoveryOptions base;
  base.max_delta_ratio = 0.5;
  EvidenceCache evidence;
  auto configs = FastConfigs(base, &pool, &cache);
  for (auto& c : EvidenceConfigs(base, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverMfds(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Mfds", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, FastDcEvidenceMatchesOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 20;
  config.seed = CaseSeed("FastDcEvidenceMatchesOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  FastDcOptions base;
  base.max_predicates = 3;
  EvidenceCache evidence;
  std::vector<std::pair<std::string, FastDcOptions>> configs;
  FastDcOptions no_kernel = base;
  no_kernel.use_evidence = false;
  configs.push_back({"encoded-no-kernel", no_kernel});
  no_kernel.pool = &pool;
  configs.push_back({"encoded+pool-no-kernel", no_kernel});
  FastDcOptions kernel = base;
  configs.push_back({"kernel", kernel});
  kernel.pool = &pool;
  configs.push_back({"kernel+pool", kernel});
  kernel.evidence = &evidence;
  configs.push_back({"kernel+cache-build", kernel});
  configs.push_back({"kernel+cache-hit", kernel});
  for (const auto& [name, options] : configs) {
    auto fast = DiscoverDcs(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("FastDc", *fast, name);
  }
  // Sampled builds stream the serial pair sample through the kernel (or the
  // per-predicate path); the evidence store keys them by (seed, draws), and
  // a store hit must match the oracle exactly like the build it replays.
  FastDcOptions sampled = base;
  sampled.max_rows_exact = 30;
  std::vector<std::pair<std::string, FastDcOptions>> sampled_configs;
  sampled_configs.push_back({"sampled", sampled});
  FastDcOptions sampled_no_kernel = sampled;
  sampled_no_kernel.use_evidence = false;
  sampled_no_kernel.pool = &pool;
  sampled_configs.push_back({"sampled+pool-no-kernel", sampled_no_kernel});
  sampled.pool = &pool;
  sampled.evidence = &evidence;
  sampled_configs.push_back({"kernel+sampled", sampled});
  PliCache cache(data.relation);
  FastDcOptions borrowed = sampled;
  borrowed.evidence = nullptr;
  borrowed.cache = &cache;
  sampled_configs.push_back({"kernel+sampled+pli-encoding", borrowed});
  for (const auto& [name, options] : sampled_configs) {
    auto fast = DiscoverDcs(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("FastDcSampled", *fast, name);
  }
  EvidenceCache sample_store;
  FastDcOptions stored = sampled;
  stored.evidence = &sample_store;
  stored.cache = &cache;
  auto built = DiscoverDcs(data.relation, stored);
  ASSERT_TRUE(built.ok());
  ExpectGolden("FastDcSampled", *built, "kernel+sampled+store-build");
  int64_t hits_before = sample_store.stats().hits;
  auto hit = DiscoverDcs(data.relation, stored);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(sample_store.stats().hits, hits_before + 1);
  ExpectGolden("FastDcSampled", *hit, "kernel+sampled+store-hit");
}

TEST_P(PortedDeterminismTest, SdAndCsdTableauMatchOracle) {
  ThreadPool pool(GetParam());
  Relation r = SensorSeries(CaseSeed("SdAndCsdTableauMatchOracle"), 120);
  PliCache cache(r);
  SdDiscoveryOptions base;
  base.min_confidence = 0.0;  // always report, so every config must agree
  for (const auto& [name, options] : FastConfigs(base, &pool, &cache)) {
    auto fast = DiscoverSd(r, 0, 1, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Sd", *fast, name);
  }

  CsdDiscoveryOptions csd_base;
  csd_base.gap = Interval::Between(-10.0, 10.0);
  csd_base.min_confidence = 0.8;
  for (const auto& [name, options] : FastConfigs(csd_base, &pool, &cache)) {
    auto fast = DiscoverCsdTableau(r, 0, 1, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("CsdTableau", *fast, name);
  }
}

// -------------------------------------------------- quality applications
//
// The option-less overloads forward to the QualityOptions ones; each case
// checks them against the golden file too.

TEST_P(PortedDeterminismTest, FdRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 60;
  config.rows_per_hotel = 4;
  config.variation_rate = 0.0;
  config.error_rate = 0.08;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  std::vector<Fd> fds = {Fd(AttrSet::Single(1), AttrSet::Single(2)),
                         Fd(AttrSet::Single(0), AttrSet::Single(4))};
  auto plain = RepairWithFds(data.relation, fds);
  ASSERT_TRUE(plain.ok());
  ExpectGolden("FdRepair", *plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto fast = RepairWithFds(data.relation, fds, 4, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("FdRepair", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, CfdRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  HotelConfig config;
  config.num_hotels = 50;
  config.variation_rate = 0.0;
  config.error_rate = 0.1;
  GeneratedData data = GenerateHotels(config);
  PliCache cache(data.relation);
  std::vector<Cfd> cfds = {
      Cfd(AttrSet::Single(1), AttrSet::Single(2),
          PatternTuple({PatternItem::Wildcard(1), PatternItem::Wildcard(2)})),
      Cfd(AttrSet::Single(3), AttrSet::Single(4),
          PatternTuple({PatternItem::Const(3, Value(2)),
                        PatternItem::Wildcard(4)}))};
  auto plain = RepairWithCfds(data.relation, cfds);
  ASSERT_TRUE(plain.ok());
  ExpectGolden("CfdRepair", *plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto fast = RepairWithCfds(data.relation, cfds, 4, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("CfdRepair", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, HolisticRepairMatchesOracle) {
  ThreadPool pool(GetParam());
  Rng rng(CaseSeed("HolisticRepairMatchesOracle"));
  RelationBuilder b({"addr", "region", "price"});
  for (int i = 0; i < 40; ++i) {
    int grp = static_cast<int>(rng.Uniform(0, 6));
    b.AddRow({Value("a" + std::to_string(grp)),
              Value(rng.Bernoulli(0.15) ? "Odd" : "r" + std::to_string(grp)),
              Value(100 + grp)});
  }
  Relation r = std::move(b.Build()).value();
  PliCache cache(r);
  Dc dc({DcPredicate{DcOperand::TupleA(0), CmpOp::kEq, DcOperand::TupleB(0)},
         DcPredicate{DcOperand::TupleA(1), CmpOp::kNeq,
                     DcOperand::TupleB(1)}});
  auto plain = RepairWithDcsHolistic(r, {dc});
  ASSERT_TRUE(plain.ok());
  ExpectGolden("HolisticRepair", *plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto fast = RepairWithDcsHolistic(r, {dc}, 1000, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("HolisticRepair", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, DedupMatchMatchesOracle) {
  ThreadPool pool(GetParam());
  HeterogeneousConfig config;
  config.num_entities = 30;
  config.max_duplicates = 3;
  config.variation_rate = 0.4;
  config.seed = CaseSeed("DedupMatchMatchesOracle");
  GeneratedData data = GenerateHeterogeneous(config);
  PliCache cache(data.relation);
  MdMatcher matcher({Md({SimilarityPredicate{1, GetEditDistanceMetric(), 6},
                         SimilarityPredicate{2, GetEditDistanceMetric(), 4}},
                        AttrSet::Single(4)),
                     Md({SimilarityPredicate{3, GetEditDistanceMetric(), 4},
                         SimilarityPredicate{4, GetAbsDiffMetric(), 0}},
                        AttrSet::Single(5))});
  auto plain = matcher.Match(data.relation);
  ASSERT_TRUE(plain.ok());
  ExpectGolden("DedupMatch", *plain, "option-less");
  EvidenceCache evidence;
  auto configs = FastConfigs(QualityOptions{}, &pool, &cache);
  for (auto& c :
       EvidenceConfigs(QualityOptions{}, &pool, &cache, &evidence)) {
    configs.push_back(std::move(c));
  }
  for (const auto& [name, options] : configs) {
    auto fast = matcher.Match(data.relation, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("DedupMatch", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, ImputeMatchesOracle) {
  ThreadPool pool(GetParam());
  Rng rng(CaseSeed("ImputeMatchesOracle"));
  RelationBuilder b({"street", "price"});
  for (int i = 0; i < 60; ++i) {
    int grp = static_cast<int>(rng.Uniform(0, 8));
    Value price = rng.Bernoulli(0.2)
                      ? Value::Null()
                      : Value(100.0 * grp + rng.Uniform(0, 9));
    b.AddRow({Value("street " + std::to_string(grp)), price});
  }
  Relation r = std::move(b.Build()).value();
  PliCache cache(r);
  Ned rule({Ned::Predicate{0, GetEditDistanceMetric(), 1.0}},
           {Ned::Predicate{1, GetAbsDiffMetric(), 50.0}});
  auto plain = ImputeWithNed(r, rule);
  ASSERT_TRUE(plain.ok());
  ExpectGolden("Impute", *plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto fast = ImputeWithNed(r, rule, options);
    ASSERT_TRUE(fast.ok()) << name;
    ExpectGolden("Impute", *fast, name);
  }
}

TEST_P(PortedDeterminismTest, CqaMatchesOracle) {
  ThreadPool pool(GetParam());
  Relation r = ConflictRelation(CaseSeed("CqaMatchesOracle"), 50);
  PliCache cache(r);
  Fd fd(AttrSet::Single(1), AttrSet::Single(2));
  SelectionQuery q;
  q.attr = 2;
  q.op = CmpOp::kEq;
  q.constant = Value("Boston");
  q.projection = AttrSet::Of({0, 2});
  auto certain_plain = CertainAnswers(r, fd, q);
  ASSERT_TRUE(certain_plain.ok());
  ExpectGolden("CqaCertain", *certain_plain, "option-less");
  auto possible_plain = PossibleAnswers(r, fd, q);
  ASSERT_TRUE(possible_plain.ok());
  ExpectGolden("CqaPossible", *possible_plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto certain = CertainAnswers(r, fd, q, options);
    ASSERT_TRUE(certain.ok()) << name;
    ExpectGolden("CqaCertain", *certain, name);
    auto possible = PossibleAnswers(r, fd, q, options);
    ASSERT_TRUE(possible.ok()) << name;
    ExpectGolden("CqaPossible", *possible, name);
  }
}

TEST_P(PortedDeterminismTest, SpeedCleanMatchesOracle) {
  ThreadPool pool(GetParam());
  Relation r = SensorSeries(CaseSeed("SpeedCleanMatchesOracle"), 150);
  PliCache cache(r);
  SpeedConstraint sc{-5.0, 5.0};
  auto detect_plain = DetectSpeedViolations(r, 0, 1, sc);
  ASSERT_TRUE(detect_plain.ok());
  EXPECT_FALSE(detect_plain->empty());  // the spikes must register
  ExpectGolden("SpeedDetect", *detect_plain, "option-less");
  auto repair_plain = RepairWithSpeedConstraint(r, 0, 1, sc);
  ASSERT_TRUE(repair_plain.ok());
  ExpectGolden("SpeedRepair", *repair_plain, "option-less");
  for (const auto& [name, options] :
       FastConfigs(QualityOptions{}, &pool, &cache)) {
    auto detect = DetectSpeedViolations(r, 0, 1, sc, options);
    ASSERT_TRUE(detect.ok()) << name;
    ExpectGolden("SpeedDetect", *detect, name);
    auto repair = RepairWithSpeedConstraint(r, 0, 1, sc, options);
    ASSERT_TRUE(repair.ok()) << name;
    ExpectGolden("SpeedRepair", *repair, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PortedDeterminismTest,
                         testing::ValuesIn(kThreadCounts));

// The engine façade must route every ported algorithm through the pool +
// cache fast path and stay identical to the oracles.
TEST(PortedEngineFacadeTest, FacadeMatchesOracles) {
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  DiscoveryEngine engine(engine_options);

  HotelConfig config;
  config.num_hotels = 40;
  config.error_rate = 0.05;
  GeneratedData data = GenerateHotels(config);
  const Relation& r = data.relation;

  auto cfds = engine.ConstantCfds(r);
  ASSERT_TRUE(cfds.ok());
  ExpectGolden("FacadeConstantCfds", *cfds, "engine");

  auto ods = engine.UnaryOds(r);
  ASSERT_TRUE(ods.ok());
  ExpectGolden("FacadeUnaryOds", *ods, "engine");

  std::vector<Fd> fds = {Fd(AttrSet::Single(1), AttrSet::Single(2))};
  auto repair = engine.RepairFds(r, fds);
  ASSERT_TRUE(repair.ok());
  ExpectGolden("FacadeFdRepair", *repair, "engine");

  DdDiscoveryOptions dd_base;
  dd_base.max_lhs_attrs = 1;
  auto dds = engine.Dds(r, dd_base);
  ASSERT_TRUE(dds.ok());
  ExpectGolden("FacadeDds", *dds, "engine");
}

}  // namespace
}  // namespace famtree
