#ifndef FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_
#define FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/pli_cache.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {

/// Resolves the encoded columnar substrate for a miner, the fast-path
/// convention shared by every ported algorithm: borrowed from the attached
/// PliCache when one is present (it encodes once per relation), built
/// locally otherwise. `*local` keeps a locally built encoding alive for the
/// caller's scope. Errors when the cache serves a different relation.
inline Result<const EncodedRelation*> ResolveEncoding(
    const Relation& relation, PliCache* cache,
    std::unique_ptr<EncodedRelation>* local) {
  if (cache != nullptr && cache->relation_or_null() != &relation) {
    return Status::Invalid("PliCache serves a different relation");
  }
  if (cache != nullptr) return &cache->encoded();
  *local = std::make_unique<EncodedRelation>(relation);
  return static_cast<const EncodedRelation*>(local->get());
}

/// Rank of each dictionary code under Value's total order. `<` is total
/// and consistent with `==`, and distinct codes hold distinct values, so
/// distinct codes get distinct ranks and rank comparisons reproduce Value
/// comparisons exactly (the order-sensitive miners — OD, SD — rely on
/// this).
inline std::vector<uint32_t> CodeRanks(const EncodedRelation& enc, int col) {
  int k = enc.dict_size(col);
  std::vector<uint32_t> by_value(k);
  for (int i = 0; i < k; ++i) by_value[i] = static_cast<uint32_t>(i);
  std::sort(by_value.begin(), by_value.end(), [&](uint32_t x, uint32_t y) {
    return enc.Decode(col, x) < enc.Decode(col, y);
  });
  std::vector<uint32_t> rank(k);
  for (int i = 0; i < k; ++i) rank[by_value[i]] = static_cast<uint32_t>(i);
  return rank;
}

/// True when any dictionary entry of `attr` is a non-finite double. The
/// similarity miners' `d > threshold` tests treat a NaN distance as
/// similar while a threshold-bucket index treats it as beyond every
/// threshold, so the evidence-kernel paths step aside for the (pathological)
/// inputs that can produce one: NaN cells (absdiff of NaN operands) and
/// +/-inf cells (|inf - inf| on a same-code diagonal).
inline bool DictHasNonFiniteDouble(const EncodedRelation& enc, int attr) {
  for (int code = 0; code < enc.dict_size(attr); ++code) {
    const Value& v = enc.Decode(attr, code);
    if (v.type() == ValueType::kDouble && !std::isfinite(v.as_double())) {
      return true;
    }
  }
  return false;
}

/// Counting sort of the rows by a column's rank — stable, so it matches a
/// std::stable_sort by Value.
inline std::vector<int> SortedRowOrder(const EncodedRelation& enc, int col,
                                       const std::vector<uint32_t>& rank) {
  const std::vector<uint32_t>& codes = enc.codes(col);
  int k = enc.dict_size(col);
  std::vector<int> offset(k + 1, 0);
  for (uint32_t c : codes) ++offset[rank[c] + 1];
  for (int i = 0; i < k; ++i) offset[i + 1] += offset[i];
  std::vector<int> order(codes.size());
  for (size_t row = 0; row < codes.size(); ++row) {
    order[offset[rank[codes[row]]]++] = static_cast<int>(row);
  }
  return order;
}

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_
