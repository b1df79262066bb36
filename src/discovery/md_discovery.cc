#include "discovery/md_discovery.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"

namespace famtree {

namespace {

/// ComputeStats over code-pair distance tables + dense RHS row keys: the
/// LHS distances are the exact doubles the metrics return and key equality
/// is value-tuple equality, so the counts match Md::ComputeStats exactly.
Md::Stats EncodedStats(
    const std::vector<SimilarityPredicate>& lhs, int n,
    const std::vector<std::unique_ptr<CodeDistanceTable>>& tables,
    const std::vector<uint32_t>& rhs_keys) {
  Md::Stats stats;
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ++stats.total_pairs;
      bool similar = true;
      for (const auto& p : lhs) {
        if (tables[p.attr]->RowDistance(i, j) > p.threshold) {
          similar = false;
          break;
        }
      }
      if (!similar) continue;
      ++stats.similar_pairs;
      if (rhs_keys[i] == rhs_keys[j]) ++stats.identified_pairs;
    }
  }
  return stats;
}

}  // namespace

Result<std::vector<DiscoveredMd>> DiscoverMds(
    const Relation& relation, AttrSet rhs,
    const MdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "MD discovery"));
  if (!AttrSet::Full(nc).ContainsAll(rhs) || rhs.empty()) {
    return Status::Invalid("MD discovery needs a valid RHS attribute set");
  }
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
  // A sampled run re-materializes the input, so the cache's encoding (keyed
  // to the original relation) cannot be borrowed.
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(sample, sampling ? nullptr : options.cache,
                      &local_encoding));

  // Candidate predicates per non-RHS attribute.
  std::vector<SimilarityPredicate> candidates;
  std::vector<MetricPtr> metrics(nc);
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
  }
  // Code-pair distance tables for the LHS attributes and dense row keys for
  // the RHS identification check, built before the outer ParallelFor.
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "mds");
  // A stop during the shared precomputation cuts before any candidate was
  // evaluated: the partial result is the empty prefix.
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredMd>{};
  };
  std::vector<std::unique_ptr<CodeDistanceTable>> tables(nc);
  std::vector<uint32_t> rhs_keys;
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    Status st = RunContext::Poll(ctx);
    if (RunContext::IsStop(st)) return exhausted_early(st, 0);
    tables[a] =
        std::make_unique<CodeDistanceTable>(*encoded, a, metrics[a], pool);
  }
  encoded->RowKeys(rhs, &rhs_keys);

  // LHS candidate sets: one or two predicates on distinct attributes.
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

  // Per-candidate pair scans are independent; the support / confidence /
  // RCK-minimality filters replay the candidate order below, so the output
  // is bit-identical at any thread count.
  std::vector<Md::Stats> stats(lhs_sets.size());
  int n = sample.num_rows();
  int64_t candidates_done = 0;
  // Evidence path: one kernel build packs, per pair, each LHS attribute's
  // threshold-bucket index and each RHS attribute's equality bit; a
  // candidate's counts are then folds over the deduplicated words.
  // d <= threshold exactly when the bucket index is at or below the
  // threshold's index, and the RHS row keys agree exactly when every RHS
  // attribute's codes do, so the stats match the pair scans bit for bit.
  bool used_evidence = false;
  if (options.use_evidence) {
    std::vector<EvidenceColumn> config;
    std::vector<int> cfg_of(nc, -1);
    std::vector<std::vector<double>> attr_th(nc);
    bool supported = true;
    for (int a = 0; a < nc && supported; ++a) {
      if (rhs.Contains(a)) continue;
      if (DictHasNonFiniteDouble(*encoded, a)) {
        supported = false;
        break;
      }
      ValueType t = relation.schema().column(a).type;
      attr_th[a] = (t == ValueType::kInt || t == ValueType::kDouble)
                       ? options.numeric_thresholds
                       : options.string_thresholds;
      std::sort(attr_th[a].begin(), attr_th[a].end());
      attr_th[a].erase(std::unique(attr_th[a].begin(), attr_th[a].end()),
                       attr_th[a].end());
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
    if (supported && EvidenceWordBits(config) <= 64) {
      EvidenceOptions eopts;
      eopts.pool = pool;
      eopts.context = ctx;
      Result<std::shared_ptr<const EvidenceSet>> set_result =
          GetOrBuildEvidence(options.evidence, *encoded, config, eopts);
      if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
        return exhausted_early(set_result.status(),
                               static_cast<int64_t>(lhs_sets.size()));
      }
      FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                               std::move(set_result));
      const std::vector<EvidenceSet::Word>& words = set->words();
      // Per-word RHS identification, shared by every candidate.
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
      // Each candidate predicate's threshold as its bucket index.
      std::vector<std::vector<std::pair<int, int>>> lhs_buckets(
          lhs_sets.size());
      for (size_t c = 0; c < lhs_sets.size(); ++c) {
        for (const auto& p : lhs_sets[c]) {
          const std::vector<double>& th = attr_th[p.attr];
          int ti = static_cast<int>(
              std::find(th.begin(), th.end(), p.threshold) - th.begin());
          lhs_buckets[c].push_back({cfg_of[p.attr], ti});
        }
      }
      FAMTREE_ASSIGN_OR_RETURN(
          candidates_done,
          AnytimeParallelFor(
              ctx, pool, static_cast<int64_t>(lhs_sets.size()),
              [&](int64_t c) {
                Md::Stats& st = stats[c];
                st.total_pairs = set->total_pairs();
                for (size_t wi = 0; wi < words.size(); ++wi) {
                  bool similar = true;
                  for (const auto& [col, ti] : lhs_buckets[c]) {
                    if (set->BucketOf(words[wi].bits, col) > ti) {
                      similar = false;
                      break;
                    }
                  }
                  if (!similar) continue;
                  st.similar_pairs += words[wi].count;
                  if (identified[wi]) st.identified_pairs += words[wi].count;
                }
                return Status::OK();
              }));
      used_evidence = true;
    }
  }
  if (!used_evidence) {
    FAMTREE_ASSIGN_OR_RETURN(
        candidates_done,
        AnytimeParallelFor(
            ctx, pool, static_cast<int64_t>(lhs_sets.size()), [&](int64_t c) {
              stats[c] = EncodedStats(lhs_sets[c], n, tables, rhs_keys);
              return Status::OK();
            }));
  }

  std::vector<DiscoveredMd> out;
  // The support / confidence / minimality filters replay the completed
  // candidate prefix only; minimality checks earlier candidates alone, so
  // the prefix output matches the full run's first candidates_done entries.
  for (size_t c = 0; c < static_cast<size_t>(candidates_done); ++c) {
    auto& lhs = lhs_sets[c];
    if (stats[c].support() < options.min_support) continue;
    if (stats[c].confidence() < options.min_confidence) continue;
    // RCK-style minimality: skip when a reported MD's predicates are a
    // subset with looser-or-equal thresholds (the reported one already
    // matches at least the pairs this one matches).
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
    out.push_back(DiscoveredMd{Md(std::move(lhs), rhs), stats[c].support(),
                               stats[c].confidence()});
    if (static_cast<int>(out.size()) >= options.max_results) {
      RunContext::MarkComplete(ctx, static_cast<int64_t>(c) + 1);
      return out;
    }
  }
  if (candidates_done < static_cast<int64_t>(lhs_sets.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done,
                              static_cast<int64_t>(lhs_sets.size()));
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

}  // namespace famtree
