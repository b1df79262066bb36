#include "discovery/mvd_discovery.h"

#include <algorithm>
#include <memory>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/fhd.h"
#include "deps/mvd.h"
#include "discovery/discovery_util.h"

namespace famtree {

Result<std::vector<DiscoveredMvd>> DiscoverMvds(
    const Relation& relation, const MvdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  if (nc > 20) {
    return Status::Invalid(
        "MVD discovery enumerates RHS blocks; limited to 20 attributes");
  }
  if (options.max_spurious_ratio < 0 || options.max_spurious_ratio > 1) {
    return Status::Invalid("max_spurious_ratio must be in [0, 1]");
  }
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<DiscoveredMvd> out;
  AttrSet full = AttrSet::Full(nc);
  // Candidates enumerated in the serial walk's order; ratios fill
  // index-addressed slots and the threshold / max_results filters replay
  // that order, so the output is bit-identical at any thread count.
  struct Candidate {
    AttrSet lhs;
    AttrSet rhs;
    double ratio = 0.0;
  };
  std::vector<Candidate> candidates;
  for (int size = 0; size <= options.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      AttrSet rest = full.Minus(lhs);
      if (rest.size() < 2) continue;  // trivial: Y or Z would be empty
      int anchor = rest.ToVector()[0];
      AttrSet others = rest.Without(anchor);
      // Canonical RHS: anchor plus any subset of the remaining attributes,
      // leaving Z non-empty (enumerating both X ->> Y and its complement
      // X ->> Z would double-report the same constraint). Subsets run in
      // increasing mask order — the historical enumeration order — via the
      // width-safe helper instead of a raw shifted-mask loop.
      std::vector<AttrSet> extras = ProperNonEmptySubsets(others);
      std::reverse(extras.begin(), extras.end());
      extras.insert(extras.begin(), AttrSet());
      if (!others.empty()) extras.push_back(others);
      for (const AttrSet& extra : extras) {
        AttrSet rhs = extra.With(anchor);
        if (full.Minus(lhs).Minus(rhs).empty()) continue;  // Z empty
        candidates.push_back(Candidate{lhs, rhs, 0.0});
      }
    }
  }
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "mvds");
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t done,
      AnytimeParallelFor(
          ctx, pool, static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            Candidate& c = candidates[i];
            c.ratio = Mvd::SpuriousTupleRatio(*encoded, c.lhs, c.rhs);
            return Status::OK();
          }));
  // The threshold filter replays the completed candidate prefix only, so a
  // cut run emits the same MVDs at any thread count.
  for (int64_t i = 0; i < done; ++i) {
    const Candidate& c = candidates[i];
    if (c.ratio <= options.max_spurious_ratio) {
      out.push_back(DiscoveredMvd{c.lhs, c.rhs, c.ratio});
      if (static_cast<int>(out.size()) >= options.max_results) {
        RunContext::MarkComplete(ctx, i + 1);
        return out;
      }
    }
  }
  if (done < static_cast<int64_t>(candidates.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), done,
                              static_cast<int64_t>(candidates.size()));
  } else {
    RunContext::MarkComplete(ctx, done);
  }
  return out;
}


Result<std::vector<DiscoveredFhd>> DiscoverFhds(
    const Relation& relation, const MvdDiscoveryOptions& options) {
  FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredMvd> mvds,
                           DiscoverMvds(relation, options));
  int nc = relation.num_columns();
  AttrSet full = AttrSet::Full(nc);
  std::vector<DiscoveredFhd> out;
  // FHDs assembled from a *partial* MVD set would not be a prefix of the
  // full run's FHDs (missing MVDs change the block partitions), so a run
  // cut during mining returns no FHDs; the per-seed check-points below
  // observe the latched stop immediately.
  RunContext* ctx = options.context;
  int64_t seeds_done = 0;
  // Group the MVDs by LHS; within each group, greedily grow a block
  // partition: start from one MVD's RHS, then split the remainder with
  // further MVD RHSs while the full-product check keeps passing.
  std::vector<AttrSet> lhs_seen;
  for (const DiscoveredMvd& seed : mvds) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, seeds_done,
                                static_cast<int64_t>(mvds.size()));
      return out;
    }
    ++seeds_done;
    bool seen = false;
    for (AttrSet l : lhs_seen) {
      if (l == seed.lhs) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    lhs_seen.push_back(seed.lhs);
    // Candidate blocks: every same-LHS MVD's RHS *and* its complement
    // (X ->> Y implies X ->> Z); the canonical discovery form anchors all
    // RHSs on one attribute, so complements are what make blocks
    // disjoint. Smallest blocks first gives the finest decomposition.
    std::vector<AttrSet> candidates;
    for (const DiscoveredMvd& other : mvds) {
      if (!(other.lhs == seed.lhs)) continue;
      AttrSet complement = full.Minus(other.lhs).Minus(other.rhs);
      for (AttrSet c : {other.rhs, complement}) {
        if (c.empty()) continue;
        bool dup = false;
        for (AttrSet e : candidates) dup |= e == c;
        if (!dup) candidates.push_back(c);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](AttrSet a, AttrSet b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    std::vector<AttrSet> blocks;
    AttrSet used = seed.lhs;
    for (AttrSet cand : candidates) {
      if (cand.Intersects(used)) continue;
      std::vector<AttrSet> attempt = blocks;
      attempt.push_back(cand);
      Fhd fhd(seed.lhs, attempt);
      if (fhd.Holds(relation)) {
        blocks = std::move(attempt);
        used = used.Union(cand);
      }
    }
    if (blocks.size() >= 2) {
      out.push_back(DiscoveredFhd{seed.lhs, std::move(blocks)});
    }
  }
  RunContext::MarkComplete(ctx, seeds_done);
  return out;
}
}  // namespace famtree
