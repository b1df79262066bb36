#ifndef FAMTREE_QUALITY_SPEED_CLEAN_H_
#define FAMTREE_QUALITY_SPEED_CLEAN_H_

#include <vector>

#include "common/status.h"
#include "deps/dependency.h"
#include "quality/quality_options.h"
#include "quality/repair.h"
#include "relation/relation.h"

namespace famtree {

/// A speed constraint on a timestamped value series (Section 5.3 future
/// work; SCREEN [97]): between consecutive observations, the value may
/// change at a rate within [min_speed, max_speed] per unit of time.
/// Speed constraints are the temporal cousins of SDs: an SD bounds the
/// *gap* between consecutive tuples, a speed constraint bounds the gap
/// normalized by elapsed time.
struct SpeedConstraint {
  double min_speed = -std::numeric_limits<double>::infinity();
  double max_speed = std::numeric_limits<double>::infinity();
};

/// Violations of the speed constraint: consecutive (by time) observation
/// pairs whose rate of change leaves the band.
Result<std::vector<Violation>> DetectSpeedViolations(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint);

/// Options overload (the one above runs it with default options): the time
/// sort is a stable counting sort over code ranks and the numerics decode
/// once per dictionary code; the scan itself is a linear pass.
Result<std::vector<Violation>> DetectSpeedViolations(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint, const QualityOptions& options);

/// Streaming repair in the spirit of SCREEN's local mode: scan in time
/// order and clamp each value into the feasible window implied by the
/// previous (already repaired) observation:
///   [prev + min_speed * dt, prev + max_speed * dt].
/// Minimal-change per step; the repaired series satisfies the constraint.
Result<RepairResult> RepairWithSpeedConstraint(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint);

/// Options overload (the one above runs it with default options): the
/// clamping scan (inherently sequential — each window depends on the
/// previous repaired value) on top of the encoded sort and per-code
/// numerics.
Result<RepairResult> RepairWithSpeedConstraint(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint, const QualityOptions& options);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_SPEED_CLEAN_H_
