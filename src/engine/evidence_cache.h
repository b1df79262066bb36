#ifndef FAMTREE_ENGINE_EVIDENCE_CACHE_H_
#define FAMTREE_ENGINE_EVIDENCE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/evidence.h"
#include "relation/encoded_relation.h"

namespace famtree {

/// Content fingerprint of an encoding: hashes the shape, every dictionary
/// (the values, in code order) and every code array. Two encodings with the
/// same fingerprint hold the same values in every cell, so any evidence set
/// built from one is valid for the other — which keys the cache by data,
/// not by address, and keeps entries correct across re-encodings and
/// distinct relations with identical content.
uint64_t EncodingFingerprint(const EncodedRelation& encoded);

/// A shared, thread-safe, size-bounded LRU store of evidence multisets,
/// keyed by (relation fingerprint, column set, distance config, and for
/// FASTDC's sampled builds the pair sample's seed and draw count) — the
/// sibling of PliCache one level up: PliCache memoizes partitions, this
/// memoizes the pairwise comparison structure every evidence consumer
/// (FASTDC, DD/MD/NED/MFD, constant-CFD pruning) starts from.
///
/// Entries are shared_ptr<const EvidenceSet>, so an evicted set stays alive
/// for callers still holding it. A miss is computed outside the lock; two
/// racing threads build the same (bit-identical) set and the first insert
/// wins.
class EvidenceCache {
 public:
  struct Options {
    size_t max_bytes = 32ull << 20;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Entries dropped for LRU pressure (not forget or append erasures).
    int64_t evictions = 0;
    /// Multisets built from scratch and stored (not append migrations, not
    /// a racing thread's losing insert).
    int64_t builds = 0;
    size_t bytes = 0;
  };

  EvidenceCache() : EvidenceCache(Options()) {}
  explicit EvidenceCache(Options options) : options_(options) {}

  /// Canonical cache key of a build request: the encoding fingerprint plus
  /// an exact serialization of the column config (attributes, comparison
  /// modes, metric names, threshold bit patterns, track flags). The
  /// enumeration strategy (dense / pruned / thread count) is deliberately
  /// not part of the key — every strategy produces the identical multiset.
  static std::string KeyFor(const EncodedRelation& encoded,
                            const std::vector<EvidenceColumn>& columns);

  /// Same key with a precomputed fingerprint. The fingerprint is always the
  /// first 16 hex characters of the key — EraseFingerprint and
  /// MaintainAppend select entries by that prefix.
  static std::string KeyForFingerprint(
      uint64_t fingerprint, const std::vector<EvidenceColumn>& columns);

  /// Key of a sampled build (BuildEvidenceForSample): the all-pairs key
  /// plus a (seed, draws) suffix. The fingerprint covers num_rows, so the
  /// key pins the whole pair stream.
  static std::string KeyForSample(const EncodedRelation& encoded,
                                  const std::vector<EvidenceColumn>& columns,
                                  PairSample sample);

  std::shared_ptr<const EvidenceSet> Lookup(const std::string& key);

  /// Inserts a multiset built from scratch under the lock (counted in
  /// stats().builds), evicting LRU entries over budget. Returns the
  /// winning entry (an earlier racing insert keeps priority). `config`,
  /// when non-empty, records the column set the entry was built from
  /// (borrowed table pointers sanitized to null) and makes the entry
  /// maintainable across appends; `num_rows` is the relation size the set
  /// ranges over.
  std::shared_ptr<const EvidenceSet> Insert(
      const std::string& key, std::shared_ptr<const EvidenceSet> set,
      std::vector<EvidenceColumn> config = {}, int num_rows = 0);

  /// Advances every maintainable entry of the pre-append encoding to the
  /// appended one: builds the new-pair delta per stored config
  /// (BuildEvidenceDelta), merges it into the cached multiset, re-inserts
  /// under the appended fingerprint, and finally drops everything still
  /// keyed by the old fingerprint (including non-maintainable legacy
  /// entries — stale sets must not survive under a dead key). Bit-identical
  /// to evicting and cold-rebuilding, at new-pairs cost.
  Status MaintainAppend(const EncodedRelation& encoded,
                        uint64_t old_fingerprint, int old_rows,
                        const EvidenceOptions& options);

  /// Drops every entry keyed by `fingerprint` (the 16-hex key prefix).
  /// DiscoveryEngine's forget paths call this so a forgotten relation's
  /// evidence cannot be served to an unrelated relation that later hashes
  /// to the same address.
  void EraseFingerprint(uint64_t fingerprint);

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const EvidenceSet> set;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
    /// Rebuild recipe for MaintainAppend; empty for entries inserted
    /// without one (then maintainable is false and appends evict instead).
    std::vector<EvidenceColumn> config;
    int num_rows = 0;
    bool maintainable = false;
  };

  /// Insert, counting a build only when `built` and the entry is new.
  std::shared_ptr<const EvidenceSet> Store(
      const std::string& key, std::shared_ptr<const EvidenceSet> set,
      std::vector<EvidenceColumn> config, int num_rows, bool built);

  /// Erases one entry by iterator (a forget or append erasure, not an
  /// eviction), adjusting bytes; returns the next iterator. Caller holds
  /// mu_.
  std::unordered_map<std::string, Entry>::iterator EraseLocked(
      std::unordered_map<std::string, Entry>::iterator it);

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // most recently used first
  Stats stats_;
};

/// The consumer-facing entry point: serves the evidence set from `cache`
/// when one is attached (building and inserting on a miss), or builds
/// directly when `cache` is null. All-pairs builds are stored with their
/// rebuild recipe, so appends maintain them; explicit pair lists
/// (BuildEvidenceForPairs) are never cached.
Result<std::shared_ptr<const EvidenceSet>> GetOrBuildEvidence(
    EvidenceCache* cache, const EncodedRelation& encoded,
    const std::vector<EvidenceColumn>& columns,
    const EvidenceOptions& options);

/// The sampled twin (FASTDC above max_rows_exact): serves
/// BuildEvidenceForSample from `cache` under KeyForSample. The entry is
/// stored without a rebuild recipe — the sample depends on the row count,
/// so an append or a forget drops it instead of migrating it.
Result<std::shared_ptr<const EvidenceSet>> GetOrBuildEvidence(
    EvidenceCache* cache, const EncodedRelation& encoded,
    const std::vector<EvidenceColumn>& columns, PairSample sample,
    const EvidenceOptions& options);

}  // namespace famtree

#endif  // FAMTREE_ENGINE_EVIDENCE_CACHE_H_
