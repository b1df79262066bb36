#include "discovery/hybrid/hybrid_md.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "discovery/hybrid/cover.h"
#include "discovery/hybrid/fd_tree.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"

namespace famtree {

Result<std::vector<DiscoveredMd>> DiscoverMdsHybrid(
    const Relation& relation, AttrSet rhs, const MdDiscoveryOptions& options,
    HybridMdStats* stats) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "MD discovery"));
  if (!AttrSet::Full(nc).ContainsAll(rhs) || rhs.empty()) {
    return Status::Invalid("MD discovery needs a valid RHS attribute set");
  }
  // The cover tree answers exact validity (confidence == 1); approximate
  // confidence bounds — and the evidence-free path — go to the lattice.
  if (options.min_confidence != 1.0 || !options.use_evidence) {
    return DiscoverMds(relation, rhs, options);
  }
  // Everything below mirrors DiscoverMds' setup move for move (sampling,
  // candidate enumeration, evidence config), so supports, confidences and
  // candidate order come out bit-identical.
  bool sampling =
      options.sample_rows > 0 && options.sample_rows < relation.num_rows();
  Relation sampled;
  if (sampling) {
    std::vector<int> rows(options.sample_rows);
    for (int i = 0; i < options.sample_rows; ++i) rows[i] = i;
    sampled = relation.Select(rows);
  }
  const Relation& sample = sampling ? sampled : relation;
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(sample, sampling ? nullptr : options.cache,
                      &local_encoding));

  std::vector<SimilarityPredicate> candidates;
  std::vector<MetricPtr> metrics(nc);
  // Per-attribute sorted-unique thresholds: the evidence bucket axes and,
  // below, one predicate bit per (attribute, threshold index).
  std::vector<std::vector<double>> attr_th(nc);
  std::vector<int> pbit_base(nc, -1);
  int pbits = 0;
  bool supported = true;
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    ValueType t = relation.schema().column(a).type;
    const std::vector<double>& ths =
        (t == ValueType::kInt || t == ValueType::kDouble)
            ? options.numeric_thresholds
            : options.string_thresholds;
    metrics[a] = DefaultMetricFor(t);
    for (double th : ths) {
      candidates.push_back(SimilarityPredicate{a, metrics[a], th});
    }
    if (DictHasNonFiniteDouble(*encoded, a)) supported = false;
    attr_th[a] = ths;
    std::sort(attr_th[a].begin(), attr_th[a].end());
    attr_th[a].erase(std::unique(attr_th[a].begin(), attr_th[a].end()),
                     attr_th[a].end());
    pbit_base[a] = pbits;
    pbits += static_cast<int>(attr_th[a].size());
  }
  if (!supported || pbits > kMaxAttrs) {
    // The cover tree cannot carry more predicate bits than the AttrSet
    // capacity; the oracle handles it with identical output.
    return DiscoverMds(relation, rhs, options);
  }

  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "hybrid_md");
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredMd>{};
  };
  std::vector<std::unique_ptr<CodeDistanceTable>> tables(nc);
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    Status st = RunContext::Poll(ctx);
    if (RunContext::IsStop(st)) return exhausted_early(st, 0);
    tables[a] =
        std::make_unique<CodeDistanceTable>(*encoded, a, metrics[a], pool);
  }

  std::vector<std::vector<SimilarityPredicate>> lhs_sets;
  for (const auto& p : candidates) lhs_sets.push_back({p});
  if (options.max_lhs_attrs >= 2) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t j = i + 1; j < candidates.size(); ++j) {
        if (candidates[i].attr == candidates[j].attr) continue;
        lhs_sets.push_back({candidates[i], candidates[j]});
      }
    }
  }
  int64_t num_candidates = static_cast<int64_t>(lhs_sets.size());

  std::vector<EvidenceColumn> config;
  std::vector<int> cfg_of(nc, -1);
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kNone;
    col.metric = metrics[a];
    col.thresholds = attr_th[a];
    col.table = tables[a].get();
    cfg_of[a] = static_cast<int>(config.size());
    config.push_back(std::move(col));
  }
  std::vector<int> rhs_cols;
  for (int a = 0; a < nc; ++a) {
    if (!rhs.Contains(a)) continue;
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    rhs_cols.push_back(static_cast<int>(config.size()));
    config.push_back(std::move(col));
  }
  if (EvidenceWordBits(config) > 64) {
    return DiscoverMds(relation, rhs, options);
  }
  EvidenceOptions eopts;
  eopts.pool = pool;
  eopts.context = ctx;
  Result<std::shared_ptr<const EvidenceSet>> set_result =
      GetOrBuildEvidence(options.evidence, *encoded, config, eopts);
  if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
    return exhausted_early(set_result.status(), num_candidates);
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                           std::move(set_result));
  const std::vector<EvidenceSet::Word>& words = set->words();
  std::vector<char> identified(words.size());
  for (size_t wi = 0; wi < words.size(); ++wi) {
    bool id = true;
    for (int col : rhs_cols) {
      if (!set->AgreesOn(words[wi].bits, col)) {
        id = false;
        break;
      }
    }
    identified[wi] = id ? 1 : 0;
  }

  // --- Cover-tree induction over the violating (non-identified) words —
  // the MD analog of the FD engine's sampling stage. A word's satisfied
  // predicate set is upward-closed per attribute (closure of its bucket),
  // so plain subset tests implement MD generalization exactly.
  Status barrier = RunContext::Checkpoint(ctx);
  if (RunContext::IsStop(barrier)) {
    return exhausted_early(barrier, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(barrier);
  Status charged = RunContext::ChargeAlloc(
      ctx, words.size() * sizeof(AttrSet), "hybrid_sample");
  if (RunContext::IsStop(charged)) {
    return exhausted_early(charged, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(charged);
  // closure(a, ti): predicate ti of attribute a plus every looser one —
  // bits [pbit_base + ti, pbit_base + #thresholds).
  auto closure = [&](int a, int ti) {
    int nth = static_cast<int>(attr_th[a].size());
    return AttrSet::Range(pbit_base[a] + ti, pbit_base[a] + nth);
  };
  std::vector<AttrSet> attr_pred_mask(nc);
  for (int a = 0; a < nc; ++a) {
    if (cfg_of[a] >= 0 && !attr_th[a].empty()) {
      attr_pred_mask[a] = closure(a, 0);
    }
  }
  int lhs_cap = std::clamp(options.max_lhs_attrs, 1, 2);
  auto keep = [&](AttrSet s) {
    int attrs = 0;
    for (int a = 0; a < nc; ++a) {
      if (s.Intersects(attr_pred_mask[a])) ++attrs;
    }
    return attrs <= lhs_cap;
  };
  FdTree positive(pbits);
  positive.Add(AttrSet(), 0);
  NegativeCover negative(pbits);
  Inductor inductor(&positive);
  std::vector<AttrSet> exts;
  int64_t violating_words = 0;
  for (size_t wi = 0; wi < words.size(); ++wi) {
    if (identified[wi]) continue;
    ++violating_words;
    AttrSet sat;
    exts.clear();
    for (int a = 0; a < nc; ++a) {
      if (cfg_of[a] < 0 || attr_th[a].empty()) continue;
      int bucket = set->BucketOf(words[wi].bits, cfg_of[a]);
      int nth = static_cast<int>(attr_th[a].size());
      if (bucket < nth) sat = sat.Union(closure(a, bucket));
      // The loosest unsatisfied threshold is the minimal way to exclude
      // this word via attribute a.
      if (bucket >= 1) exts.push_back(closure(a, bucket - 1));
    }
    if (!negative.AddMaximal(sat, 0)) continue;
    inductor.SpecializeAgainst(sat, 0, exts, keep);
  }

  // --- Candidate evaluation: validity is one cover-tree lookup; only the
  // support fold still walks the words (identified == similar for valid
  // candidates, and invalid ones are filtered on confidence below).
  std::vector<std::vector<std::pair<int, int>>> lhs_buckets(lhs_sets.size());
  std::vector<AttrSet> cand_bits(lhs_sets.size());
  for (size_t c = 0; c < lhs_sets.size(); ++c) {
    for (const auto& p : lhs_sets[c]) {
      const std::vector<double>& th = attr_th[p.attr];
      int ti = static_cast<int>(std::find(th.begin(), th.end(), p.threshold) -
                                th.begin());
      lhs_buckets[c].push_back({cfg_of[p.attr], ti});
      cand_bits[c] = cand_bits[c].Union(closure(p.attr, ti));
    }
  }
  charged = RunContext::ChargeAlloc(
      ctx, lhs_sets.size() * (sizeof(Md::Stats) + sizeof(char)),
      "hybrid_validate");
  if (RunContext::IsStop(charged)) {
    return exhausted_early(charged, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(charged);
  std::vector<Md::Stats> cstats(lhs_sets.size());
  std::vector<char> valid(lhs_sets.size());
  int64_t candidates_done = 0;
  FAMTREE_ASSIGN_OR_RETURN(
      candidates_done,
      AnytimeParallelFor(ctx, pool, num_candidates, [&](int64_t c) {
        // The tree is immutable here; concurrent lookups are pure reads.
        valid[c] =
            positive.ContainsGeneralization(cand_bits[c], 0) ? 1 : 0;
        Md::Stats& st = cstats[c];
        st.total_pairs = set->total_pairs();
        for (size_t wi = 0; wi < words.size(); ++wi) {
          bool similar = true;
          for (const auto& [col, ti] : lhs_buckets[c]) {
            if (set->BucketOf(words[wi].bits, col) > ti) {
              similar = false;
              break;
            }
          }
          if (similar) st.similar_pairs += words[wi].count;
        }
        if (valid[c]) st.identified_pairs = st.similar_pairs;
        return Status::OK();
      }));

  if (stats != nullptr) {
    stats->used_cover_tree = true;
    stats->predicate_bits = pbits;
    stats->evidence_words = static_cast<int64_t>(words.size());
    stats->violating_words = violating_words;
    stats->negative_cover_size = negative.size();
    stats->positive_cover_size = positive.CountEntries();
    stats->candidates = num_candidates;
    for (int64_t c = 0; c < candidates_done; ++c) {
      if (valid[c]) ++stats->valid_candidates;
    }
  }

  // --- Replay: verbatim the oracle's support / confidence / RCK filters.
  std::vector<DiscoveredMd> out;
  for (size_t c = 0; c < static_cast<size_t>(candidates_done); ++c) {
    auto& lhs = lhs_sets[c];
    if (cstats[c].support() < options.min_support) continue;
    if (cstats[c].confidence() < options.min_confidence) continue;
    bool redundant = false;
    for (const DiscoveredMd& prev : out) {
      bool covers = true;
      for (const auto& pp : prev.md.lhs()) {
        bool found = false;
        for (const auto& p : lhs) {
          if (p.attr == pp.attr && pp.threshold >= p.threshold) {
            found = true;
            break;
          }
        }
        if (!found) {
          covers = false;
          break;
        }
      }
      if (covers && prev.md.lhs().size() <= lhs.size()) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    out.push_back(DiscoveredMd{Md(std::move(lhs), rhs), cstats[c].support(),
                               cstats[c].confidence()});
    if (static_cast<int>(out.size()) >= options.max_results) {
      RunContext::MarkComplete(ctx, static_cast<int64_t>(c) + 1);
      return out;
    }
  }
  if (candidates_done < num_candidates) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done, num_candidates);
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

}  // namespace famtree
