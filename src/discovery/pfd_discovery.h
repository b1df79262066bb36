#ifndef FAMTREE_DISCOVERY_PFD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_PFD_DISCOVERY_H_

#include <vector>

#include "common/attr_set.h"
#include "common/status.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

struct PfdDiscoveryOptions {
  /// Minimum probability for a PFD to be reported.
  double min_probability = 0.9;
  /// LHS size cap for the lattice walk.
  int max_lhs_size = 3;
  int max_results = 100000;
  /// Optional engine hooks: when `pool` is set, the probabilities of each
  /// lattice level's minimal candidates are computed in parallel and the
  /// threshold filter applied in candidate order (bit-identical at any
  /// thread count); `cache` lends its encoding.
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

struct DiscoveredPfd {
  AttrSet lhs;
  int rhs = 0;
  double probability = 0.0;
};

/// Per-relation PFD discovery in the style of [104]'s first counting
/// algorithm: a TANE-like levelwise walk whose validity test is
/// P(X -> Y, r) >= p. Reports minimal PFDs (no subset of the LHS already
/// qualified for the same RHS).
Result<std::vector<DiscoveredPfd>> DiscoverPfds(
    const Relation& relation, const PfdDiscoveryOptions& options = {});

/// Multi-source merge in the style of [104]'s second algorithm: per-source
/// PFD probabilities combined as a tuple-count weighted average. Sources
/// must share a schema.
Result<std::vector<DiscoveredPfd>> DiscoverPfdsMultiSource(
    const std::vector<Relation>& sources,
    const PfdDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_PFD_DISCOVERY_H_
