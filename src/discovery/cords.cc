#include "discovery/cords.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/sfd.h"
#include "relation/encoded_relation.h"

namespace famtree {

Result<std::vector<DiscoveredSfd>> DiscoverSfdsCords(
    const Relation& relation, const CordsOptions& options) {
  if (options.sample_size <= 0) {
    return Status::Invalid("sample_size must be positive");
  }
  int n = relation.num_rows();
  Rng rng(options.seed);
  std::vector<int> sample_rows;
  if (n <= options.sample_size) {
    sample_rows.resize(n);
    for (int i = 0; i < n; ++i) sample_rows[i] = i;
  } else {
    sample_rows = rng.SampleWithoutReplacement(n, options.sample_size);
  }
  Relation sample = relation.Select(sample_rows);
  // Encoded once per sweep; every pair analysis reads the shared code
  // arrays instead of re-hashing sample Values per pair.
  EncodedRelation encoded(sample);

  // The per-pair analyses only read the shared sample, so the sweep runs
  // one pair per ParallelFor iteration, each writing its pre-assigned slot.
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "CORDS discovery"));
  std::vector<std::pair<int, int>> column_pairs;
  column_pairs.reserve(static_cast<size_t>(nc) * std::max(0, nc - 1));
  for (int a = 0; a < nc; ++a) {
    for (int b = 0; b < nc; ++b) {
      if (a != b) column_pairs.push_back({a, b});
    }
  }
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "cords");
  std::vector<DiscoveredSfd> out(column_pairs.size());
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t done,
      AnytimeParallelFor(
          ctx, options.pool, static_cast<int64_t>(column_pairs.size()),
          [&](int64_t idx) {
      auto [a, b] = column_pairs[idx];
      DiscoveredSfd finding;
      finding.lhs = a;
      finding.rhs = b;
      finding.strength =
          Sfd::Strength(encoded, AttrSet::Single(a), AttrSet::Single(b));
      finding.is_soft_fd = finding.strength >= options.min_strength;

      int total = sample.num_rows();
      double chi2 = 0.0;
      // Contingency table over bucketed categories, columnar: the code of
      // a cell is its first-occurrence rank, so min(code, cap) assigns ids
      // in first-occurrence order, with codes >= cap folded into the shared
      // "other" bucket. Every id in [0, ka) occurs in the sample (codes are
      // dense), so the flat totals have no zero slots.
      int cap = options.max_categories;
      int ka = total == 0 ? 0 : std::min(encoded.dict_size(a), cap + 1);
      int kb = total == 0 ? 0 : std::min(encoded.dict_size(b), cap + 1);
      const std::vector<uint32_t>& codes_a = encoded.codes(a);
      const std::vector<uint32_t>& codes_b = encoded.codes(b);
      std::vector<int> counts(static_cast<size_t>(ka) * kb, 0);
      std::vector<int> row_totals(ka, 0), col_totals(kb, 0);
      for (int r = 0; r < total; ++r) {
        int ca = std::min(static_cast<int>(codes_a[r]), cap);
        int cb = std::min(static_cast<int>(codes_b[r]), cap);
        ++counts[static_cast<size_t>(ca) * kb + cb];
        ++row_totals[ca];
        ++col_totals[cb];
      }
      if (total > 0 && ka > 1 && kb > 1) {
        for (int ra = 0; ra < ka; ++ra) {
          for (int cb = 0; cb < kb; ++cb) {
            double expected = static_cast<double>(row_totals[ra]) *
                              col_totals[cb] / total;
            double observed = counts[static_cast<size_t>(ra) * kb + cb];
            if (expected > 0) {
              chi2 += (observed - expected) * (observed - expected) /
                      expected;
            }
          }
        }
        int k = std::min(ka, kb);
        double v = std::sqrt(chi2 / (total * std::max(1, k - 1)));
        finding.cramers_v = std::min(1.0, v);
      }
      finding.chi2 = chi2;
      finding.is_correlated = finding.cramers_v >= options.min_cramers_v;
      out[idx] = finding;
      return Status::OK();
          }));
  // On a cutoff, keep the completed pair prefix — pairs are indexed in the
  // deterministic (a, b) enumeration order, so the prefix is the same at
  // any thread count.
  if (done < static_cast<int64_t>(column_pairs.size())) {
    out.resize(done);
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), done,
                              static_cast<int64_t>(column_pairs.size()));
  } else {
    RunContext::MarkComplete(ctx, static_cast<int64_t>(column_pairs.size()));
  }
  return out;
}

}  // namespace famtree
