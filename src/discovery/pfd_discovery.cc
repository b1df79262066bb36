#include "discovery/pfd_discovery.h"

#include <memory>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/pfd.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

/// One lattice candidate X -> A with its probability slot (written by
/// exactly one ParallelFor iteration).
struct PfdCandidate {
  AttrSet lhs;
  int rhs = 0;
  double probability = 0.0;
};

bool IsMinimal(const std::vector<DiscoveredPfd>& out, AttrSet lhs, int rhs) {
  for (const DiscoveredPfd& p : out) {
    if (p.rhs == rhs && lhs.ContainsAll(p.lhs)) return false;
  }
  return true;
}

/// The levelwise walk behind both entries. Each level first drops the
/// candidates a PFD of an earlier level already covers — two distinct
/// LHS sets of one size never contain each other, so the earlier levels
/// are all the minimality filter needs — then computes only the
/// survivors' probabilities through ParallelFor and keeps those at or
/// above the bound in candidate order: bit-identical at any thread count.
/// An interrupted level is discarded whole, so a cut run returns the PFDs
/// of its completed levels — the same prefix at any thread count.
template <typename Probability>
Result<std::vector<DiscoveredPfd>> WalkPfdLattice(
    int nc, const PfdDiscoveryOptions& options, RunContext* ctx,
    const Probability& probability) {
  std::vector<DiscoveredPfd> out;
  const int64_t total_levels = options.max_lhs_size;
  int64_t levels_done = 0;
  for (int size = 1; size <= options.max_lhs_size; ++size) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, levels_done, total_levels);
      return out;
    }
    std::vector<PfdCandidate> candidates;
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (!lhs.Contains(a) && IsMinimal(out, lhs, a)) {
          candidates.push_back(PfdCandidate{lhs, a, 0.0});
        }
      }
    }
    Status level_status = ParallelFor(
        options.pool, static_cast<int64_t>(candidates.size()),
        [&](int64_t i) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
          candidates[i].probability =
              probability(candidates[i].lhs, candidates[i].rhs);
          return Status::OK();
        });
    if (RunContext::IsStop(level_status)) {
      RunContext::MarkExhausted(ctx, level_status, levels_done, total_levels);
      return out;
    }
    FAMTREE_RETURN_NOT_OK(level_status);
    for (const PfdCandidate& c : candidates) {
      if (c.probability >= options.min_probability) {
        out.push_back(DiscoveredPfd{c.lhs, c.rhs, c.probability});
        if (static_cast<int>(out.size()) >= options.max_results) {
          RunContext::MarkComplete(ctx, levels_done);
          return out;
        }
      }
    }
    ++levels_done;
  }
  RunContext::MarkComplete(ctx, levels_done);
  return out;
}

}  // namespace

Result<std::vector<DiscoveredPfd>> DiscoverPfds(
    const Relation& relation, const PfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "PFD discovery"));
  if (options.min_probability < 0 || options.min_probability > 1) {
    return Status::Invalid("min_probability must be in [0, 1]");
  }
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  RunContext::BeginRun(options.context, "pfds");
  return WalkPfdLattice(nc, options, options.context, [&](AttrSet lhs, int a) {
    return Pfd::Probability(*encoded, lhs, AttrSet::Single(a));
  });
}

Result<std::vector<DiscoveredPfd>> DiscoverPfdsMultiSource(
    const std::vector<Relation>& sources,
    const PfdDiscoveryOptions& options) {
  if (sources.empty()) return Status::Invalid("no sources given");
  int nc = sources[0].num_columns();
  for (const Relation& s : sources) {
    if (s.num_columns() != nc) {
      return Status::Invalid("sources must share a schema");
    }
  }
  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "pfds_multi_source");
  const int64_t total_levels = options.max_lhs_size;
  // The PliCache is keyed to a single relation, so the multi-source merge
  // only uses per-source local encodings.
  std::vector<std::unique_ptr<EncodedRelation>> encodings(sources.size());
  Status encode_status = ParallelFor(
      pool, static_cast<int64_t>(sources.size()), [&](int64_t i) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
        encodings[i] = std::make_unique<EncodedRelation>(sources[i]);
        return Status::OK();
      });
  if (RunContext::IsStop(encode_status)) {
    RunContext::MarkExhausted(ctx, encode_status, 0, total_levels);
    return std::vector<DiscoveredPfd>{};
  }
  FAMTREE_RETURN_NOT_OK(encode_status);
  long long total_rows = 0;
  for (const Relation& s : sources) total_rows += s.num_rows();
  if (total_rows == 0) return std::vector<DiscoveredPfd>{};
  // Tuple-count weighted average across sources, accumulated in source
  // order.
  auto merged_probability = [&](AttrSet lhs, int a) {
    double merged = 0.0;
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].num_rows() == 0) continue;
      double prob = Pfd::Probability(*encodings[s], lhs, AttrSet::Single(a));
      merged += prob * sources[s].num_rows() / total_rows;
    }
    return merged;
  };
  return WalkPfdLattice(nc, options, ctx, merged_probability);
}

}  // namespace famtree
