#ifndef FAMTREE_DISCOVERY_SD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_SD_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/sd.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

struct SdDiscoveryOptions {
  /// Quantiles of the observed consecutive-gap distribution that bound the
  /// discovered interval (robust against a few outliers).
  double lo_quantile = 0.05;
  double hi_quantile = 0.95;
  /// Minimum confidence for the SD to be reported.
  double min_confidence = 0.9;
  /// Optional engine hooks: `pool` parallelizes the per-code numeric
  /// decode; the confidence DP itself is loop-carried and stays serial.
  /// `cache` lends its encoding.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

struct DiscoveredSd {
  Sd sd;
  double confidence = 0.0;
};

/// Discovers an SD order_attr ->_g target_attr by fitting the gap interval
/// to the observed consecutive-difference distribution [48] and measuring
/// its confidence. Returns NotFound when confidence stays below the bound.
Result<DiscoveredSd> DiscoverSd(const Relation& relation, int order_attr,
                                int target_attr,
                                const SdDiscoveryOptions& options = {});

struct CsdDiscoveryOptions {
  /// Gap interval each tableau row must enforce.
  Interval gap = Interval::AtLeast(0.0);
  /// Minimum per-interval confidence for a candidate interval to be
  /// usable in the tableau.
  double min_confidence = 0.95;
  /// Minimum rows a candidate interval must span.
  int min_interval_rows = 3;
  /// Fast-path knobs, same convention as SdDiscoveryOptions: the sort and
  /// the numeric decode run encoded; the tableau DP (quadratic, exact)
  /// stays serial.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

struct DiscoveredCsd {
  Csd csd;
  /// Number of source rows covered by the tableau.
  int covered_rows = 0;
};

/// CSD tableau discovery (Section 4.4.5, [48]): candidate condition
/// intervals are the O(k^2) ranges between distinct order-attribute
/// values; an exact dynamic program picks the disjoint set of qualifying
/// intervals maximizing covered rows — the polynomial-time discovery
/// problem highlighted by Fig. 3 (quadratic in the candidate intervals).
Result<DiscoveredCsd> DiscoverCsdTableau(
    const Relation& relation, int order_attr, int target_attr,
    const CsdDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_SD_DISCOVERY_H_
