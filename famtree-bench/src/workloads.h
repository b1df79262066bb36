// The three workloads. Each generates its inputs from the seed, sets up
// (timed as setup_s, median of several set-ups), runs closed-loop jobs or
// requests for the requested seconds, checks every output, and fills the
// end-to-end metrics (and, when traced, the per-layer metrics) of
// RunResult. README.md explains why each workload exists.

#ifndef FAMTREE_BENCH_WORKLOADS_H_
#define FAMTREE_BENCH_WORKLOADS_H_

#include "common.h"

namespace famtree::bench {

/// Cold analysis jobs over a 500k-row noisy sales table: parse, encode,
/// TANE + hybrid exact FDs, TANE AFDs, FASTDC, MDs, FD repair.
RunResult RunMineBatch(const RunArgs& args);

/// Four closed-loop clients sending mixed discovery requests and appends
/// to one DiscoveryService holding three relations.
RunResult RunServeMixed(const RunArgs& args);

/// Out-of-core jobs over a ~5M-row CSV under one 256 MiB budget: ingest,
/// TANE and hybrid out of core, append, cover repair.
RunResult RunOocSpill(const RunArgs& args);

/// Checks the analytic ooc_spill covers against in-memory TANE at a small
/// size; returns the gate errors (empty = agree).
std::vector<std::string> CheckOocExpectedCovers(uint64_t seed);

/// Number of set-ups each run times; setup_s is their median. The first
/// kSetupsBefore run before the timed phase and the rest after it, so that
/// the median does not rest on one moment of a machine whose speed drifts.
constexpr int kSetupRepeats = 5;
constexpr int kSetupsBefore = 3;

}  // namespace famtree::bench

#endif  // FAMTREE_BENCH_WORKLOADS_H_
