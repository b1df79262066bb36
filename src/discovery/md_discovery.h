#ifndef FAMTREE_DISCOVERY_MD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_MD_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/md.h"
#include "relation/relation.h"

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

struct MdDiscoveryOptions {
  /// Minimum support: fraction of tuple pairs the LHS similarity covers.
  double min_support = 0.001;
  /// Minimum confidence: fraction of LHS-similar pairs identified on RHS.
  double min_confidence = 0.9;
  /// Candidate similarity thresholds per string attribute (edit distance).
  std::vector<double> string_thresholds = {0, 1, 2, 3};
  /// Candidate tolerances per numeric attribute (absolute difference).
  std::vector<double> numeric_thresholds = {0, 1, 5};
  /// LHS predicate count cap.
  int max_lhs_attrs = 2;
  /// Evaluate on the first `sample_rows` tuples in statistical-distribution
  /// order — the approximation algorithm of [85], [87].
  int sample_rows = 0;  // 0 = all rows
  int max_results = 10000;
  /// Optional engine hooks: when `pool` is set the per-candidate pair
  /// scans run in parallel and the support / confidence / RCK-minimality
  /// filters replay the serial candidate order (bit-identical at any
  /// thread count); `cache` lends its encoding (ignored when sampling
  /// re-materializes the input).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
  /// Evaluate every candidate against the shared pairwise evidence
  /// multiset (engine/evidence.h): one kernel build packs each LHS
  /// attribute's threshold-bucket index and each RHS attribute's equality
  /// bit into a word per pair, and each candidate's support / confidence
  /// counts become folds over the deduplicated words instead of O(n^2)
  /// row-pair scans. Falls back (identical output)
  /// when the word exceeds 64 bits or a dictionary holds a non-finite
  /// double (whose NaN distances the bucket index cannot mirror).
  bool use_evidence = true;
  /// Optional shared store for the kernel-built evidence multiset.
  EvidenceCache* evidence = nullptr;
};

struct DiscoveredMd {
  Md md;
  double support = 0.0;
  double confidence = 0.0;
};

/// MD discovery in the spirit of [85], [87]: enumerates similarity
/// predicates over candidate thresholds, evaluates support/confidence on
/// all (or the first k) tuples, and reports MDs meeting both bounds.
/// Redundant MDs whose LHS predicate set is a superset (with looser or
/// equal thresholds) of an already-reported MD on the same RHS are pruned —
/// the relative-candidate-key minimality of [90].
Result<std::vector<DiscoveredMd>> DiscoverMds(
    const Relation& relation, AttrSet rhs,
    const MdDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_MD_DISCOVERY_H_
