#include "discovery/od_discovery.h"

#include <algorithm>
#include <memory>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

struct PairScan {
  bool leq = true;
  bool geq = true;
};

/// Checks A^<= -> B^<= and A^<= -> B^>= in one scan over the rows sorted
/// by A. For a tie on A both orientations satisfy the LHS, forcing B
/// equality within each A-tie group; across groups B must be monotone in
/// the marked direction (see Od::Validate for the pairwise semantics).
/// Equal Values share one code, so tie-group uniformity is a code
/// comparison and cross-group monotonicity is a rank comparison.
PairScan CheckPairEncoded(const EncodedRelation& enc,
                          const std::vector<int>& order, int a, int b,
                          const std::vector<uint32_t>& rank_b) {
  const std::vector<uint32_t>& ca = enc.codes(a);
  const std::vector<uint32_t>& cb = enc.codes(b);
  PairScan r;
  size_t n = order.size();
  size_t i = 0;
  bool has_prev = false;
  uint32_t prev_rank = 0;
  while (i < n && (r.leq || r.geq)) {
    size_t j = i;
    uint32_t group_a = ca[order[i]];
    uint32_t group_b = cb[order[i]];
    for (; j < n && ca[order[j]] == group_a; ++j) {
      if (cb[order[j]] != group_b) return PairScan{false, false};
    }
    uint32_t rb = rank_b[group_b];
    if (has_prev) {
      if (rb < prev_rank) r.leq = false;
      if (rb > prev_rank) r.geq = false;
    }
    prev_rank = rb;
    has_prev = true;
    i = j;
  }
  return r;
}

}  // namespace

Result<std::vector<DiscoveredOd>> DiscoverUnaryOds(
    const Relation& relation, const OdDiscoveryOptions& options) {
  std::vector<DiscoveredOd> out;
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "OD discovery"));
  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "unary_ods");
  auto eligible = [&](int c) {
    if (!options.numeric_only) return true;
    ValueType t = relation.schema().column(c).type;
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  std::vector<int> cols;
  AttrSet col_set;
  for (int c = 0; c < nc; ++c) {
    if (eligible(c)) {
      cols.push_back(c);
      col_set = col_set.With(c);
    }
  }
  // Like ResolveEncoding, but a locally built encoding covers only the
  // eligible columns — the miner never reads the others, so skipping their
  // dictionary builds keeps wide mixed-type relations cheap.
  if (options.cache != nullptr && options.cache->relation_or_null() != &relation) {
    return Status::Invalid("PliCache serves a different relation");
  }
  std::unique_ptr<EncodedRelation> local_encoding;
  const EncodedRelation* encoded = nullptr;
  if (options.cache != nullptr) {
    encoded = &options.cache->encoded();
  } else {
    local_encoding = std::make_unique<EncodedRelation>(relation, col_set);
    encoded = local_encoding.get();
  }
  // Precomputation, once per column instead of one sort per ordered pair
  // and direction: the rank table and the sorted row order.
  std::vector<std::vector<uint32_t>> ranks(nc);
  std::vector<std::vector<int>> orders(nc);
  Status precompute = ParallelFor(
      pool, static_cast<int64_t>(cols.size()), [&](int64_t i) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
        int c = cols[i];
        ranks[c] = CodeRanks(*encoded, c);
        orders[c] = SortedRowOrder(*encoded, c, ranks[c]);
        return Status::OK();
      });
  if (RunContext::IsStop(precompute)) {
    // Cut before any candidate was evaluated: the partial result is the
    // empty prefix.
    int64_t total = static_cast<int64_t>(cols.size()) *
                    (static_cast<int64_t>(cols.size()) - 1);
    RunContext::MarkExhausted(ctx, precompute, 0, total);
    return out;
  }
  FAMTREE_RETURN_NOT_OK(precompute);
  // Candidate pairs in the serial walk's order; each slot is written by
  // exactly one ParallelFor iteration and the merge replays pair order, so
  // the output is bit-identical at any thread count.
  struct Candidate {
    int a;
    int b;
    uint8_t result = 0;  // 0 = none, 1 = B^<=, 2 = B^>=
  };
  std::vector<Candidate> candidates;
  for (int a : cols) {
    for (int b : cols) {
      if (a != b) candidates.push_back(Candidate{a, b, 0});
    }
  }
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t done,
      AnytimeParallelFor(
          ctx, pool, static_cast<int64_t>(candidates.size()), [&](int64_t t) {
        Candidate& cd = candidates[t];
        PairScan r =
            CheckPairEncoded(*encoded, orders[cd.a], cd.a, cd.b, ranks[cd.b]);
        cd.result = r.leq ? 1 : (r.geq ? 2 : 0);
        return Status::OK();
          }));
  // The serial merge replays the completed candidate prefix only, so a cut
  // run emits the same ODs at any thread count.
  for (int64_t t = 0; t < done; ++t) {
    const Candidate& cd = candidates[t];
    if (cd.result == 1) {
      out.push_back(DiscoveredOd{Od({MarkedAttr{cd.a, OrderMark::kLeq}},
                                    {MarkedAttr{cd.b, OrderMark::kLeq}})});
    } else if (cd.result == 2) {
      out.push_back(DiscoveredOd{Od({MarkedAttr{cd.a, OrderMark::kLeq}},
                                    {MarkedAttr{cd.b, OrderMark::kGeq}})});
    }
    if (static_cast<int>(out.size()) >= options.max_results) {
      RunContext::MarkComplete(ctx, t + 1);
      return out;
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

}  // namespace famtree
