#ifndef FAMTREE_QUALITY_QUALITY_OPTIONS_H_
#define FAMTREE_QUALITY_QUALITY_OPTIONS_H_

namespace famtree {

class EvidenceCache;
class PliCache;
class RunContext;
class ThreadPool;

/// Fast-path knobs shared by the quality applications, following the same
/// convention as the discovery miners: every application runs on the
/// dictionary-encoded columnar backend, fanning the read-only scans onto
/// the engine thread pool when `pool` is set, with all order-sensitive
/// merges replayed serially — results are identical at any thread count.
/// `cache` lends its encoding when the application reads the relation it
/// serves (appliers that mutate a working copy re-encode that copy instead).
struct QualityOptions {
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Route pairwise scans through the shared comparison kernel
  /// (engine/evidence.h): similarity predicates compile to per-pair
  /// threshold-bucket bits (byte-wide banded-edit bucket tables instead of
  /// full distance tables), decoded by bitmask per rule. Applications fall
  /// back to their per-predicate scans (identical output) for configs the
  /// kernel cannot mirror exactly.
  bool use_evidence = true;
  /// Optional shared store for kernel-built evidence multisets.
  EvidenceCache* evidence = nullptr;
  /// Optional run limits (common/run_context.h): applications check-point
  /// at pass/rule boundaries and degrade to a partial result (with
  /// RunReport.exhausted set) when a limit fires.
  RunContext* context = nullptr;
};

}  // namespace famtree

#endif  // FAMTREE_QUALITY_QUALITY_OPTIONS_H_
