// Footnote 1 of Section 3: "the same challenge exists if the selection
// is a spatial range (e.g., rectangle)". The paper's Counting and
// Block-Marking carry over to a rectangular range selection on the
// INNER relation of a kNN-join:
//
//     (E1 JOIN_kNN E2) INTERSECT (E1 x Range_rect(E2))
// i.e. pairs (e1, e2) with e2 among the join_k nearest E2-points of e1
// AND e2 inside the rectangle.
//
// Pushing the range below the join's inner side is invalid for the
// same reason as the kNN-select: the join would see only in-rectangle
// points. The evaluators are the kNN-select's own
// (src/core/select_inner_join.cc, one template per algorithm), run
// with a range filter whose thresholds adapt naturally:
//   * Counting: MINDIST(e1, rect) replaces the distance to the nearest
//     focal neighbor - more than join_k points strictly closer prove
//     no rectangle point joins e1.
//   * Block-Marking: a block is Non-Contributing when
//     r + 2y < MINDIST(center, rect), with r the center's join_k
//     neighborhood radius and y the center-to-corner distance; the
//     f_farthest term of the kNN-select disappears because the
//     rectangle is its own "neighborhood". The contour scan starts
//     from the rectangle's center.

#ifndef KNNQ_SRC_CORE_RANGE_SELECT_INNER_JOIN_H_
#define KNNQ_SRC_CORE_RANGE_SELECT_INNER_JOIN_H_

#include "src/common/status.h"
#include "src/core/result_types.h"
#include "src/core/select_inner_join.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// The query: E1 (outer) joined with E2 (inner), rectangle select on E2.
struct RangeSelectInnerJoinQuery {
  const SpatialIndex* outer = nullptr;
  const SpatialIndex* inner = nullptr;
  std::size_t join_k = 0;
  /// The selection rectangle over E2.
  BoundingBox range;
};

/// The conceptually correct QEP: full join, filter pairs by the
/// rectangle. Fails on null relations, join_k == 0, or an empty
/// rectangle. `exec` (optional, like `stats`) accumulates the uniform
/// counters; `shared_cache` (optional) memoizes getkNN probes across
/// queries.
Result<JoinResult> RangeSelectInnerJoinNaive(
    const RangeSelectInnerJoinQuery& query,
    SelectInnerJoinStats* stats = nullptr, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

/// Counting-style evaluation (Procedure 1 adapted to a range).
Result<JoinResult> RangeSelectInnerJoinCounting(
    const RangeSelectInnerJoinQuery& query,
    SelectInnerJoinStats* stats = nullptr, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

/// Block-Marking-style evaluation (Procedures 2 + 3 adapted to a
/// range); blocks are scanned in MINDIST order from the rectangle
/// center for the contour rule.
Result<JoinResult> RangeSelectInnerJoinBlockMarking(
    const RangeSelectInnerJoinQuery& query,
    PreprocessMode mode = PreprocessMode::kExhaustive,
    SelectInnerJoinStats* stats = nullptr, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

}  // namespace knnq

#endif  // KNNQ_SRC_CORE_RANGE_SELECT_INNER_JOIN_H_
