#include "discovery/tane.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "engine/pli_cache.h"
#include "relation/partition.h"

namespace famtree {

namespace {

/// Translates a cache miss that is really a latched run limit: a PliCache
/// fed a RunContext returns nullptr when the budget (or an injected fault)
/// stopped the build.
Status PliStopStatus(RunContext* ctx) {
  Status stop = RunContext::StopStatus(ctx);
  return stop.ok() ? Status::Internal("PLI unavailable") : stop;
}

/// Partitions are handled by shared pointer so the serial path, the shared
/// cache and the prev-level map can alias one partition without deep copies.
using Pli = std::shared_ptr<const StrippedPartition>;

struct Node {
  Pli pli;
  AttrSet cplus;  // RHS candidates C+(X)
};

using Level = std::map<AttrSet, Node>;

/// e(X) in TANE terms: rows in stripped classes minus class count.
int PartitionCost(const StrippedPartition& p) {
  return p.num_rows_in_classes() - p.num_classes();
}

/// One validity test X \ A -> A, flattened out of the per-node candidate
/// loops so a thread pool can chew on all of a level's tests at once.
struct CandidateTest {
  size_t node_index = 0;
  int rhs = 0;
  AttrSet lhs;
  // Outputs (written by exactly one ParallelFor iteration each).
  bool tested = false;
  double error = 1.0;
};

/// One next-level lattice node whose partition product is still pending.
struct PendingNode {
  AttrSet attrs;
  Pli parent1;  // unused when a cache serves the partition
  Pli parent2;
  AttrSet cplus;
  Pli pli;  // output slot
};

/// The shared walk behind both public entries. `relation` is nullptr for
/// the cache-only (out-of-core) entry, in which case `options.cache` is
/// guaranteed non-null and every partition and row/column count comes from
/// the cache.
Result<std::vector<DiscoveredFd>> DiscoverFdsTaneImpl(
    const Relation* relation, const TaneOptions& options) {
  PliCache* cache = options.cache;
  int nc = relation != nullptr ? relation->num_columns()
                               : cache->num_columns();
  int num_rows = relation != nullptr ? relation->num_rows()
                                     : cache->num_rows();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "TANE"));
  if (options.max_error < 0 || options.max_error > 1) {
    return Status::Invalid("max_error must be in [0, 1]");
  }
  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  if (cache != nullptr && relation != nullptr &&
      cache->relation_or_null() != relation) {
    return Status::Invalid("PliCache serves a different relation");
  }
  RunContext::BeginRun(ctx, "tane");
  const int64_t total_levels = options.max_lhs_size + 1;
  int64_t levels_done = 0;
  std::vector<DiscoveredFd> out;
  // Per-RHS index over `out` for the key-pruning minimality consult below:
  // scanning the whole output list per emitted FD is quadratic in the
  // output size, which wide schemas (hundreds of key columns emitting
  // nc - 1 FDs each) turn into the dominant cost.
  std::unordered_map<int, std::vector<AttrSet>> lhs_by_rhs;
  auto emit = [&](const AttrSet& lhs, int rhs, double error) {
    out.push_back(DiscoveredFd{lhs, rhs, error});
    lhs_by_rhs[rhs].push_back(lhs);
  };
  const bool exact = options.max_error == 0.0;
  const AttrSet full = AttrSet::Full(nc);

  // The encoded columnar substrate: borrowed from the cache when one is
  // attached (it encodes once per relation), built locally otherwise.
  std::unique_ptr<EncodedRelation> local_encoding;
  const EncodedRelation* encoded = nullptr;
  if (cache != nullptr) {
    // Null for an out-of-core cache that has not materialized its flat
    // encoding: exact discovery never needs it (the g3-free validity tests
    // below compare partition costs), and the cache-only entry materializes
    // it up front for approximate discovery.
    encoded = cache->encoded_or_null();
  } else {
    local_encoding = std::make_unique<EncodedRelation>(*relation);
    encoded = local_encoding.get();
  }
  if (!exact && encoded == nullptr) {
    return Status::Invalid(
        "approximate TANE on an out-of-core cache requires the encoded "
        "columns; call PliCache::EnsureEncoded first");
  }

  // Level 1: one partition per attribute, built (or cache-served) in
  // parallel and assembled into the level map in attribute order.
  std::vector<Pli> singles(nc);
  Status singles_status = ParallelFor(pool, nc, [&](int64_t a) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
    int attr = static_cast<int>(a);
    if (cache != nullptr) {
      singles[a] = cache->Get(AttrSet::Single(attr), ctx);
      if (singles[a] == nullptr) return PliStopStatus(ctx);
    } else {
      singles[a] = std::make_shared<StrippedPartition>(
          StrippedPartition::ForAttribute(*encoded, attr));
    }
    return Status::OK();
  });
  if (RunContext::IsStop(singles_status)) {
    RunContext::MarkExhausted(ctx, singles_status, 0, total_levels);
    return out;
  }
  FAMTREE_RETURN_NOT_OK(singles_status);
  Level level;
  for (int a = 0; a < nc; ++a) {
    level.emplace(AttrSet::Single(a), Node{std::move(singles[a]), full});
  }

  // Level 0's C+ is the full set; dependencies {} -> A (constant columns)
  // are reported from level 1 with an empty LHS.
  for (auto& [x, node] : level) {
    int a = x.ToVector()[0];
    // {} -> A holds iff column A is constant; its g3 error is one minus
    // the plurality fraction of the column.
    int largest = std::max(1, node.pli->MaxClassSize());
    double err = num_rows == 0 ? 0.0
                               : 1.0 - static_cast<double>(largest) / num_rows;
    if (err <= options.max_error) {
      emit(AttrSet(), a, err);
      node.cplus.Remove(a);
    }
  }

  // Partitions of the previous level, used by the validity test
  // e(X \ A) == e(X) (exact) / g3 from pi(X \ A) (approximate).
  std::unordered_map<AttrSet, Pli, AttrSetHash> prev_plis;

  // Level `depth` holds attribute sets X with |X| = depth; the FDs tested
  // there have LHS size depth - 1, so the walk runs to max_lhs_size + 1.
  for (int depth = 1; depth <= options.max_lhs_size + 1 && !level.empty();
       ++depth) {
    // One deterministic check-point per lattice level: a limit firing here
    // (or mid-level, below) returns the FDs of the completed levels.
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, levels_done, total_levels);
      return out;
    }
    FAMTREE_RETURN_NOT_OK(gate);
    // COMPUTE_DEPENDENCIES. The validity tests of a level are mutually
    // independent: each reads only immutable partitions (its node's and the
    // previous level's), so they are flattened into one work list. Their
    // side effects — emitting the FD and shrinking C+ — are replayed
    // serially afterwards in exactly the order the serial walk uses, which
    // keeps the output bit-identical for any thread count.
    std::vector<Node*> nodes;
    nodes.reserve(level.size());
    std::vector<CandidateTest> tests;
    {
      size_t node_index = 0;
      for (auto& [x, node] : level) {
        nodes.push_back(&node);
        for (int a : x.Intersect(node.cplus).ToVector()) {
          AttrSet lhs = x.Without(a);
          // The lhs partition lives in the previous level (empty lhs is
          // the constant-column case handled before the loop).
          if (lhs.empty()) continue;
          tests.push_back(CandidateTest{node_index, a, lhs, false, 1.0});
        }
        ++node_index;
      }
    }
    Status tests_status =
        ParallelFor(pool, static_cast<int64_t>(tests.size()), [&](int64_t t) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
          CandidateTest& test = tests[t];
          auto prev = prev_plis.find(test.lhs);
          if (prev == prev_plis.end()) return Status::OK();  // lhs pruned
          test.tested = true;
          const Pli& node_pli = nodes[test.node_index]->pli;
          // e(X \ A) - e(X) sums k - 1 over the X \ A classes that A splits
          // into k groups; g3 removes at least k - 1 rows from each, so it
          // bounds the removal count from below. Division by num_rows is
          // monotone, so a bound above max_error rules the FD out without
          // the g3 scan (and exact discovery needs nothing more).
          int cost_gap =
              PartitionCost(*prev->second) - PartitionCost(*node_pli);
          if (exact || static_cast<double>(cost_gap) / num_rows >
                           options.max_error) {
            test.error = cost_gap == 0 ? 0.0 : 1.0;
          } else {
            test.error =
                prev->second->FdError(*encoded, AttrSet::Single(test.rhs));
          }
          return Status::OK();
        });
    if (RunContext::IsStop(tests_status)) {
      // The interrupted level's tests are discarded whole: `out` holds
      // exactly the completed levels' FDs at any thread count.
      RunContext::MarkExhausted(ctx, tests_status, levels_done, total_levels);
      return out;
    }
    FAMTREE_RETURN_NOT_OK(tests_status);
    for (const CandidateTest& test : tests) {
      if (!test.tested || test.error > options.max_error) continue;
      Node& node = *nodes[test.node_index];
      AttrSet x = test.lhs.With(test.rhs);
      emit(test.lhs, test.rhs, test.error);
      if (static_cast<int>(out.size()) >= options.max_results) {
        RunContext::MarkComplete(ctx, levels_done);
        return out;
      }
      node.cplus.Remove(test.rhs);
      if (exact) {
        node.cplus = node.cplus.Minus(full.Minus(x));
      }
    }
    // PRUNE.
    for (auto it = level.begin(); it != level.end();) {
      const AttrSet& x = it->first;
      Node& node = it->second;
      bool erase = node.cplus.empty();
      if (!erase && exact && node.pli->IsKey() &&
          x.size() <= options.max_lhs_size) {
        for (int a : node.cplus.Minus(x).ToVector()) {
          // Minimality check per TANE: A must be in the intersection of
          // C+(X u {A} \ {B}) over B in X; approximate conservatively by
          // checking no subset of X already determines A.
          bool minimal = true;
          auto prior = lhs_by_rhs.find(a);
          if (prior != lhs_by_rhs.end()) {
            for (const AttrSet& lhs : prior->second) {
              if (x.ContainsAll(lhs)) {
                minimal = false;
                break;
              }
            }
          }
          if (minimal) {
            emit(x, a, 0.0);
          }
        }
        erase = true;
      }
      it = erase ? level.erase(it) : ++it;
    }
    ++levels_done;
    if (depth == options.max_lhs_size + 1) break;
    // Retain this level's partitions for the next level's validity tests.
    prev_plis.clear();
    for (const auto& [attrs, node] : level) {
      prev_plis.emplace(attrs, node.pli);
    }
    // GENERATE next level via prefix join: enumerate the surviving
    // candidate sets serially (cheap bit tricks), then compute the
    // expensive partition products in parallel.
    std::vector<PendingNode> pending;
    std::set<AttrSet> seen;
    for (auto it1 = level.begin(); it1 != level.end(); ++it1) {
      for (auto it2 = std::next(it1); it2 != level.end(); ++it2) {
        AttrSet u = it1->first.Union(it2->first);
        if (u.size() != depth + 1) continue;
        if (!seen.insert(u).second) continue;
        // All depth-size subsets must be alive (Apriori condition).
        bool ok = true;
        AttrSet cplus = it1->second.cplus.Intersect(it2->second.cplus);
        for (int drop : u.ToVector()) {
          AttrSet sub = u.Without(drop);
          auto found = level.find(sub);
          if (found == level.end()) {
            ok = false;
            break;
          }
          cplus = cplus.Intersect(found->second.cplus);
        }
        if (!ok) continue;
        pending.push_back(PendingNode{u, it1->second.pli, it2->second.pli,
                                      cplus, nullptr});
      }
    }
    Status products_status = ParallelFor(
        pool, static_cast<int64_t>(pending.size()), [&](int64_t i) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
          PendingNode& p = pending[i];
          p.pli = cache != nullptr
                      ? cache->Get(p.attrs, ctx)
                      : std::make_shared<StrippedPartition>(
                            p.parent1->Product(*p.parent2, num_rows));
          if (p.pli == nullptr) return PliStopStatus(ctx);
          return Status::OK();
        });
    if (RunContext::IsStop(products_status)) {
      RunContext::MarkExhausted(ctx, products_status, levels_done,
                                total_levels);
      return out;
    }
    FAMTREE_RETURN_NOT_OK(products_status);
    Level next;
    for (PendingNode& p : pending) {
      next.emplace(p.attrs, Node{std::move(p.pli), p.cplus});
    }
    level = std::move(next);
  }
  RunContext::MarkComplete(ctx, levels_done);
  return out;
}

}  // namespace

Result<std::vector<DiscoveredFd>> DiscoverFdsTane(const Relation& relation,
                                                  const TaneOptions& options) {
  return DiscoverFdsTaneImpl(&relation, options);
}

Result<std::vector<DiscoveredFd>> DiscoverFdsTane(PliCache* cache,
                                                  const TaneOptions& options) {
  if (cache == nullptr) {
    return Status::Invalid("cache-only TANE requires a PliCache");
  }
  TaneOptions opts = options;
  opts.cache = cache;
  // Approximate discovery's g3 tests read flat code arrays; materialize
  // them once up front (charged with shard-spill fallback) so the lattice
  // walk itself never blocks on encoding. Exact discovery stays PLI-only.
  if (opts.max_error > 0.0 && !cache->has_encoded()) {
    FAMTREE_RETURN_NOT_OK(cache->EnsureEncoded(opts.context));
  }
  Result<std::vector<DiscoveredFd>> out =
      DiscoverFdsTaneImpl(cache->relation_or_null(), opts);
  // The walk held its levels' partitions, so the cache let them exceed its
  // budget. An out-of-core caller bounds memory: trim now rather than at
  // the next insert. In memory they stay for the next walk over the
  // relation (AFD after exact TANE reuses most of them).
  if (cache->sharded_or_null() != nullptr) cache->Trim();
  return out;
}

Result<std::vector<DiscoveredFd>> DiscoverFdsNaive(const Relation& relation,
                                                   const TaneOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "naive FD search"));
  std::vector<DiscoveredFd> out;
  for (int size = 0; size <= options.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (lhs.Contains(a)) continue;
        // Minimality: skip if a subset of lhs already determines a.
        bool minimal = true;
        for (const DiscoveredFd& fd : out) {
          if (fd.rhs == a && lhs.ContainsAll(fd.lhs)) {
            minimal = false;
            break;
          }
        }
        if (!minimal) continue;
        double err;
        if (lhs.empty()) {
          int largest = 0;
          for (const auto& g : relation.GroupBy(AttrSet::Single(a))) {
            largest = std::max(largest, static_cast<int>(g.size()));
          }
          err = relation.num_rows() == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(largest) /
                                relation.num_rows();
        } else {
          err = StrippedPartition::ForAttributeSet(relation, lhs)
                    .FdError(relation, AttrSet::Single(a));
        }
        if (err <= options.max_error) {
          out.push_back(DiscoveredFd{lhs, a, err});
          if (static_cast<int>(out.size()) >= options.max_results) return out;
        }
      }
    }
  }
  return out;
}

}  // namespace famtree
