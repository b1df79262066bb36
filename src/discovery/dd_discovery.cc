#include "discovery/dd_discovery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"

namespace famtree {

namespace {

MetricPtr MetricForColumn(const Relation& relation, int attr) {
  return DefaultMetricFor(relation.schema().column(attr).type);
}

/// All finite pairwise distances on one attribute (n <= a few thousand).
std::vector<double> PairwiseDistances(const Relation& relation, int attr,
                                      const Metric& metric) {
  std::vector<double> out;
  int n = relation.num_rows();
  out.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double d = metric.Distance(relation.Get(i, attr), relation.Get(j, attr));
      if (std::isfinite(d)) out.push_back(d);
    }
  }
  return out;
}

std::vector<double> ThresholdsFromDistances(std::vector<double> dists,
                                            const std::vector<double>& quantiles) {
  std::sort(dists.begin(), dists.end());
  std::vector<double> out;
  for (double q : quantiles) {
    if (dists.empty()) break;
    size_t idx = std::min(dists.size() - 1,
                          static_cast<size_t>(q * dists.size()));
    out.push_back(dists[idx]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The pairwise distance distribution of one attribute as a code-pair
/// histogram: every unordered row pair falls into one code pair, so the
/// sorted (distance, multiplicity) list is the sorted row-pair distance
/// multiset — quantile picks and the finite max read off it bit-identically
/// in O(k^2) instead of O(n^2) metric evaluations.
void HistogramThresholds(const EncodedRelation& encoded, int a,
                         const CodeDistanceTable& table,
                         const std::vector<double>& quantiles,
                         std::vector<double>* thresholds_out,
                         double* global_max_out) {
  const std::vector<uint32_t>& codes = encoded.codes(a);
  int k = encoded.dict_size(a);
  std::vector<int64_t> count(k, 0);
  for (uint32_t c : codes) ++count[c];
  std::vector<std::pair<double, int64_t>> hist;
  hist.reserve(static_cast<size_t>(k) * (k + 1) / 2);
  int64_t total = 0;
  for (int c1 = 0; c1 < k; ++c1) {
    int64_t diag = count[c1] * (count[c1] - 1) / 2;
    if (diag > 0) {
      double d = table.Distance(c1, c1);
      if (std::isfinite(d)) {
        hist.push_back({d, diag});
        total += diag;
      }
    }
    for (int c2 = c1 + 1; c2 < k; ++c2) {
      int64_t mult = count[c1] * count[c2];
      double d = table.Distance(c1, c2);
      if (std::isfinite(d)) {
        hist.push_back({d, mult});
        total += mult;
      }
    }
  }
  std::sort(hist.begin(), hist.end(),
            [](const std::pair<double, int64_t>& x,
               const std::pair<double, int64_t>& y) {
              return x.first < y.first;
            });
  *global_max_out = 0.0;
  if (!hist.empty()) {
    *global_max_out = std::max(0.0, hist.back().first);
  }
  std::vector<double> picked;
  for (double q : quantiles) {
    if (total == 0) break;
    int64_t idx = std::min(
        total - 1, static_cast<int64_t>(q * static_cast<double>(total)));
    int64_t cum = 0;
    for (const auto& [d, mult] : hist) {
      cum += mult;
      if (idx < cum) {
        picked.push_back(d);
        break;
      }
    }
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  *thresholds_out = std::move(picked);
}

}  // namespace

std::vector<double> DetermineThresholds(const Relation& relation, int attr,
                                        const std::vector<double>& quantiles) {
  MetricPtr metric = MetricForColumn(relation, attr);
  return ThresholdsFromDistances(
      PairwiseDistances(relation, attr, *metric), quantiles);
}

Result<std::vector<DiscoveredDd>> DiscoverDds(
    const Relation& input, const DdDiscoveryOptions& options) {
  Relation sampled;
  const Relation* source = &input;
  if (options.sample_rows > 0 && input.num_rows() > options.sample_rows) {
    Rng rng(options.seed);
    sampled = input.Select(
        rng.SampleWithoutReplacement(input.num_rows(), options.sample_rows));
    source = &sampled;
  }
  const Relation& relation = *source;
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "DD discovery"));
  int n = relation.num_rows();
  if (n > 3000) {
    return Status::Invalid(
        "DD discovery is pairwise; set sample_rows to bound the input");
  }
  if (options.max_lhs_attrs < 1 || options.max_lhs_attrs > 2) {
    return Status::Invalid("max_lhs_attrs must be 1 or 2");
  }
  ThreadPool* pool = options.pool;
  // A sampled run re-materializes the input, so the cache's encoding (keyed
  // to the original relation) cannot be borrowed.
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, source == &input ? options.cache : nullptr,
                      &local_encoding));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "dds");
  // A stop during the shared precomputation (distance tables, thresholds,
  // evidence) cuts before any candidate was evaluated: the partial result
  // is the empty prefix.
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredDd>{};
  };
  std::vector<MetricPtr> metrics(nc);
  for (int a = 0; a < nc; ++a) metrics[a] = MetricForColumn(relation, a);
  // Code-pair distance tables, one per attribute. Built before any outer
  // ParallelFor (each fill parallelizes internally on the same pool).
  std::vector<std::unique_ptr<CodeDistanceTable>> tables(nc);
  for (int a = 0; a < nc; ++a) {
    Status st = RunContext::Poll(ctx);
    if (RunContext::IsStop(st)) return exhausted_early(st, 0);
    tables[a] =
        std::make_unique<CodeDistanceTable>(*encoded, a, metrics[a], pool);
  }
  // Per-attribute threshold candidates and global max pairwise distance
  // (the vacuity bound), read off code-pair histograms.
  std::vector<std::vector<double>> thresholds(nc);
  std::vector<double> global_max(nc, 0.0);
  Status threshold_status = ParallelFor(pool, nc, [&](int64_t a) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
    HistogramThresholds(*encoded, static_cast<int>(a), *tables[a],
                        options.threshold_quantiles, &thresholds[a],
                        &global_max[a]);
    return Status::OK();
  });
  if (RunContext::IsStop(threshold_status)) {
    return exhausted_early(threshold_status, 0);
  }
  FAMTREE_RETURN_NOT_OK(threshold_status);

  // Candidate LHS: one or two attributes, each with one threshold.
  std::vector<std::vector<DifferentialFunction>> lhs_candidates;
  for (int a = 0; a < nc; ++a) {
    for (double t : thresholds[a]) {
      lhs_candidates.push_back(
          {DifferentialFunction(a, metrics[a], DistRange::AtMost(t))});
    }
  }
  if (options.max_lhs_attrs >= 2) {
    size_t singles = lhs_candidates.size();
    for (size_t i = 0; i < singles; ++i) {
      for (size_t j = i + 1; j < singles; ++j) {
        if (lhs_candidates[i][0].attr == lhs_candidates[j][0].attr) continue;
        lhs_candidates.push_back(
            {lhs_candidates[i][0], lhs_candidates[j][0]});
      }
    }
  }

  // Each candidate's pair scan is independent: one pass over all row pairs
  // accumulates the LHS support and, for every RHS attribute, the running
  // max distance (max and the all-finite flag are order-insensitive). The
  // support / vacuity / subsumption / max_results filters replay serially
  // below in candidate order, so the output is bit-identical at any thread
  // count.
  struct CandidateStats {
    int64_t support = 0;
    std::vector<double> bound;
    std::vector<char> finite;
  };
  std::vector<CandidateStats> stats(lhs_candidates.size());
  // Evidence path: one kernel build packs every attribute's bucket index
  // (against its candidate threshold list) into a word per pair and tracks
  // per-word distance maxima; each candidate then folds over the
  // deduplicated words instead of all row pairs. d <= thresholds[a][ti]
  // exactly when the bucket index is <= ti, and max/or folds over word
  // groups equal the pairwise folds, so the stats are bit-identical.
  bool used_evidence = false;
  int64_t candidates_done = 0;
  if (options.use_evidence) {
    std::vector<EvidenceColumn> config(nc);
    for (int a = 0; a < nc; ++a) {
      config[a].attr = a;
      config[a].cmp = EvidenceColumn::Cmp::kNone;
      config[a].metric = metrics[a];
      config[a].thresholds = thresholds[a];
      config[a].track_max = true;
      config[a].table = tables[a].get();
    }
    if (EvidenceWordBits(config) <= 64) {
      EvidenceOptions eopts;
      eopts.pool = pool;
      eopts.context = ctx;
      Result<std::shared_ptr<const EvidenceSet>> set_result =
          GetOrBuildEvidence(options.evidence, *encoded, config, eopts);
      if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
        return exhausted_early(
            set_result.status(),
            static_cast<int64_t>(lhs_candidates.size()));
      }
      FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                               std::move(set_result));
      // Each LHS function's threshold as its index in the attribute's
      // sorted list (the exact doubles the config was built from).
      std::vector<std::vector<std::pair<int, int>>> lhs_buckets(
          lhs_candidates.size());
      for (size_t c = 0; c < lhs_candidates.size(); ++c) {
        for (const auto& fn : lhs_candidates[c]) {
          const std::vector<double>& th = thresholds[fn.attr];
          int ti = static_cast<int>(
              std::find(th.begin(), th.end(), fn.range.max) - th.begin());
          lhs_buckets[c].push_back({fn.attr, ti});
        }
      }
      const std::vector<EvidenceSet::Word>& words = set->words();
      FAMTREE_ASSIGN_OR_RETURN(
          candidates_done,
          AnytimeParallelFor(
              ctx, pool, static_cast<int64_t>(lhs_candidates.size()),
              [&](int64_t c) {
            CandidateStats& st = stats[c];
            st.bound.assign(nc, 0.0);
            st.finite.assign(nc, 1);
            for (size_t wi = 0; wi < words.size(); ++wi) {
              bool ok = true;
              for (const auto& [a, ti] : lhs_buckets[c]) {
                if (set->BucketOf(words[wi].bits, a) > ti) {
                  ok = false;
                  break;
                }
              }
              if (!ok) continue;
              st.support += words[wi].count;
              for (int b = 0; b < nc; ++b) {
                const EvidenceSet::Aggregate& agg = set->agg(wi, b);
                if (agg.saw_nonfinite) st.finite[b] = 0;
                st.bound[b] = std::max(st.bound[b], agg.max_finite);
              }
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
          ctx, pool, static_cast<int64_t>(lhs_candidates.size()),
          [&](int64_t c) {
        const auto& lhs = lhs_candidates[c];
        CandidateStats& st = stats[c];
        st.bound.assign(nc, 0.0);
        st.finite.assign(nc, 1);
        for (int i = 0; i + 1 < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            bool ok = true;
            for (const auto& fn : lhs) {
              if (!fn.range.Contains(tables[fn.attr]->RowDistance(i, j))) {
                ok = false;
                break;
              }
            }
            if (!ok) continue;
            ++st.support;
            for (int b = 0; b < nc; ++b) {
              if (!st.finite[b]) continue;
              double d = tables[b]->RowDistance(i, j);
              if (!std::isfinite(d)) {
                st.finite[b] = 0;
              } else {
                st.bound[b] = std::max(st.bound[b], d);
              }
            }
          }
        }
        return Status::OK();
          }));
  }

  std::vector<DiscoveredDd> out;
  // The support / vacuity / subsumption filters replay the completed
  // candidate prefix only — subsumption checks earlier candidates alone, so
  // the prefix output matches the full run's first candidates_done entries.
  for (size_t c = 0; c < static_cast<size_t>(candidates_done); ++c) {
    const auto& lhs = lhs_candidates[c];
    const CandidateStats& st = stats[c];
    if (st.support < options.min_support) continue;
    AttrSet lhs_attrs;
    for (const auto& fn : lhs) lhs_attrs.Add(fn.attr);
    for (int b = 0; b < nc; ++b) {
      if (lhs_attrs.Contains(b)) continue;
      if (!st.finite[b]) continue;
      double bound = st.bound[b];
      if (bound >= global_max[b]) continue;  // vacuous rule
      Dd dd(lhs, {DifferentialFunction(b, metrics[b],
                                       DistRange::AtMost(bound))});
      // Subsumption: drop if an already-reported DD on the same attribute
      // sets has looser-or-equal LHS thresholds and tighter-or-equal RHS.
      bool subsumed = false;
      for (const DiscoveredDd& prev : out) {
        if (prev.dd.rhs()[0].attr != b) continue;
        if (prev.dd.lhs().size() != lhs.size()) continue;
        bool same_attrs = true, looser_lhs = true;
        for (size_t k = 0; k < lhs.size(); ++k) {
          if (prev.dd.lhs()[k].attr != lhs[k].attr) {
            same_attrs = false;
            break;
          }
          if (prev.dd.lhs()[k].range.max < lhs[k].range.max) {
            looser_lhs = false;
          }
        }
        if (same_attrs && looser_lhs &&
            prev.dd.rhs()[0].range.max <= bound) {
          subsumed = true;
          break;
        }
      }
      if (subsumed) continue;
      out.push_back(DiscoveredDd{std::move(dd), st.support});
      if (static_cast<int>(out.size()) >= options.max_results) {
        RunContext::MarkComplete(ctx, static_cast<int64_t>(c) + 1);
        return out;
      }
    }
  }
  if (candidates_done < static_cast<int64_t>(lhs_candidates.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done,
                              static_cast<int64_t>(lhs_candidates.size()));
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

}  // namespace famtree
