#include "quality/cqa.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

Status CheckQuery(const Relation& relation, const SelectionQuery& query) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "consistent query answering"));
  if (query.attr < 0 || query.attr >= nc) {
    return Status::Invalid("selection attribute outside the schema");
  }
  if (!AttrSet::Full(nc).ContainsAll(query.projection) ||
      query.projection.empty()) {
    return Status::Invalid("projection outside the schema or empty");
  }
  return Status::OK();
}

bool Selected(const Relation& relation, int row,
              const SelectionQuery& query) {
  return EvalCmp(relation.Get(row, query.attr), query.op, query.constant);
}

/// Deduplicated projection append.
void AppendProjection(const Relation& relation, int row, AttrSet projection,
                      std::set<std::vector<std::string>>* seen,
                      Relation* out) {
  std::vector<Value> proj = relation.Project(row, projection);
  std::vector<std::string> key;
  for (const Value& v : proj) {
    key.push_back(std::string(ValueTypeName(v.type())) + ":" + v.ToString());
  }
  if (seen->insert(key).second) {
    out->AppendRow(std::move(proj)).ok();
  }
}

}  // namespace

Result<Relation> CertainAnswers(const Relation& relation, const Fd& fd,
                                const SelectionQuery& query) {
  return CertainAnswers(relation, fd, query, QualityOptions{});
}

Result<Relation> CertainAnswers(const Relation& relation, const Fd& fd,
                                const SelectionQuery& query,
                                const QualityOptions& options) {
  FAMTREE_RETURN_NOT_OK(CheckQuery(relation, query));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "certain_answers");
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<std::vector<int>> groups = encoded->GroupBy(fd.lhs());
  // Dense keys: projection equality and RHS agreement become integer
  // compares (key equality <=> value-tuple equality).
  std::vector<uint32_t> rhs_keys, proj_keys;
  encoded->RowKeys(fd.rhs(), &rhs_keys);
  encoded->RowKeys(query.projection, &proj_keys);
  // Per-group certain rows (in group-row order) are independent; the
  // dedup + append below replays group order serially.
  std::vector<std::vector<int>> certain(groups.size());
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t groups_done,
      AnytimeParallelFor(
          ctx, options.pool, static_cast<int64_t>(groups.size()),
          [&](int64_t g) {
        const std::vector<int>& group = groups[g];
        // RHS subgroups: each is a candidate repair keep.
        std::vector<std::vector<int>> sub;
        for (int row : group) {
          bool placed = false;
          for (auto& s : sub) {
            if (rhs_keys[s[0]] == rhs_keys[row]) {
              s.push_back(row);
              placed = true;
              break;
            }
          }
          if (!placed) sub.push_back({row});
        }
        if (sub.size() == 1) {
          // Consistent group: every selected tuple's projection is certain.
          for (int row : group) {
            if (Selected(relation, row, query)) certain[g].push_back(row);
          }
          return Status::OK();
        }
        // Conflicting group: a projection from this group is certain iff
        // every subgroup (i.e., every repair choice) contributes a selected
        // row with that projection.
        for (int row : group) {
          if (!Selected(relation, row, query)) continue;
          bool in_all = true;
          for (const auto& s : sub) {
            bool found = false;
            for (int other : s) {
              if (!Selected(relation, other, query)) continue;
              if (proj_keys[other] == proj_keys[row]) {
                found = true;
                break;
              }
            }
            if (!found) {
              in_all = false;
              break;
            }
          }
          if (in_all) certain[g].push_back(row);
        }
        return Status::OK();
          }));
  Relation out{Schema(relation.ProjectColumns(query.projection).schema())};
  std::set<std::vector<std::string>> seen;
  // Replaying the completed group prefix keeps a cut run's answer set a
  // deterministic subset of the full answers at any thread count.
  for (size_t g = 0; g < static_cast<size_t>(groups_done); ++g) {
    for (int row : certain[g]) {
      AppendProjection(relation, row, query.projection, &seen, &out);
    }
  }
  if (groups_done < static_cast<int64_t>(groups.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), groups_done,
                              groups.size());
  } else {
    RunContext::MarkComplete(ctx, groups_done);
  }
  return out;
}

Result<Relation> PossibleAnswers(const Relation& relation, const Fd& fd,
                                 const SelectionQuery& query,
                                 const QualityOptions& options) {
  FAMTREE_RETURN_NOT_OK(CheckQuery(relation, query));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "possible_answers");
  // Every selected tuple appears in the repair keeping its own subgroup.
  int n = relation.num_rows();
  std::vector<char> selected(n, 0);
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t rows_done,
      AnytimeParallelFor(ctx, options.pool, n, [&](int64_t row) {
        selected[row] =
            Selected(relation, static_cast<int>(row), query) ? 1 : 0;
        return Status::OK();
      }));
  Relation out{Schema(relation.ProjectColumns(query.projection).schema())};
  std::set<std::vector<std::string>> seen;
  for (int row = 0; row < static_cast<int>(rows_done); ++row) {
    if (selected[row]) {
      AppendProjection(relation, row, query.projection, &seen, &out);
    }
  }
  if (rows_done < n) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), rows_done, n);
  } else {
    RunContext::MarkComplete(ctx, rows_done);
  }
  (void)fd;  // every tuple survives in some subset repair
  return out;
}

Result<Relation> PossibleAnswers(const Relation& relation, const Fd& fd,
                                 const SelectionQuery& query) {
  return PossibleAnswers(relation, fd, query, QualityOptions{});
}

}  // namespace famtree
