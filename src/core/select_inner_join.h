// Section 3: a kNN-select on the INNER relation of a kNN-join.
//
// Query semantics (the conceptually correct QEP):
//     (E1 JOIN_kNN E2) INTERSECT (E1 x sigma_{k_select, focal}(E2))
// i.e. pairs (e1, e2) where e2 is among the join_k nearest E2-points of
// e1 AND among the select_k nearest E2-points of the focal point.
// Pushing the select below the join's inner side is INVALID (Figures 1
// and 2 of the paper), so the optimized algorithms must prune without
// reducing the join's inner input:
//
//  * Naive    - the conceptually correct QEP itself: compute the full
//               join (a neighborhood per outer point), filter against
//               the focal neighborhood. The baseline of Figure 19.
//  * Counting - Procedure 1: per outer point, count inner points in
//               blocks certainly closer than the nearest focal neighbor;
//               more than join_k such points prove the neighborhoods
//               cannot intersect. One count per outer block first
//               settles every point of the blocks it can (DESIGN.md
//               note 6).
//  * Block-Marking - Procedures 2 + 3: preprocess the OUTER index once,
//               marking whole blocks Non-Contributing via the
//               (r + d + f_farthest) < f_center test on block centers;
//               only points in Contributing blocks join.
//
// The range selection of footnote 1 (range_select_inner_join.h) runs
// the same three evaluators with a different filter on E2.

#ifndef KNNQ_SRC_CORE_SELECT_INNER_JOIN_H_
#define KNNQ_SRC_CORE_SELECT_INNER_JOIN_H_

#include "src/common/status.h"
#include "src/core/exec_stats.h"
#include "src/core/result_types.h"
#include "src/index/spatial_index.h"

namespace knnq {

class NeighborhoodCache;  // src/engine/neighborhood_cache.h

/// The query: E1 (outer) joined with E2 (inner), select on E2.
struct SelectInnerJoinQuery {
  /// E1. The Block-Marking preprocessing walks this index's blocks.
  const SpatialIndex* outer = nullptr;
  /// E2: the join's inner relation and the select's input.
  const SpatialIndex* inner = nullptr;
  /// k of the join (k_bowtie in the paper).
  std::size_t join_k = 0;
  /// Focal point of the select.
  Point focal;
  /// k of the select (k_sigma in the paper).
  std::size_t select_k = 0;
};

/// How Block-Marking classifies the outer blocks.
enum class PreprocessMode {
  /// The paper's contour rule: stop scanning once a run of
  /// Non-Contributing blocks reaches the run's first MAXDIST
  /// (Procedure 3, Figure 6). UNSOUND: empty space has no block to
  /// test, so the run need not close a ring, and rows are lost on
  /// known layouts (DESIGN.md note 3). Kept only for the contour
  /// ablation and Figure 19's bench.
  kContour,
  /// Probe every outer block: exact classification on every layout.
  /// The mode every plan runs.
  kExhaustive,
};

/// Where the Non-Contributing test probes a block (Theorem 1 ablation).
enum class ProbePoint {
  /// The block center: added slack = diagonal (the paper's choice,
  /// proven minimal by Theorem 1).
  kCenter,
  /// A block corner: correctness then demands doubled slack
  /// (x = 2y with y the probe's distance to the farthest corner), so
  /// fewer blocks prune. Exists to measure what Theorem 1 saves.
  kCorner,
};

/// Execution counters exposed for tests, EXPLAIN and bench reporting.
struct SelectInnerJoinStats {
  /// Outer points whose neighborhood was computed.
  std::size_t neighborhoods_computed = 0;
  /// Outer points pruned without a neighborhood computation (Counting).
  std::size_t pruned_points = 0;
  /// Outer blocks probed during preprocessing (Block-Marking).
  std::size_t blocks_preprocessed = 0;
  /// Outer blocks classified Contributing (Block-Marking).
  std::size_t contributing_blocks = 0;
};

/// The conceptually correct QEP (join first, filter after). Pairs are
/// filtered in a pipeline, which changes memory use but not the work:
/// every outer neighborhood is computed. Fails when join_k == 0 or
/// select_k == 0 or any relation pointer is null. `exec` (optional,
/// like `stats`) accumulates the uniform counters; `shared_cache`
/// (optional) memoizes getkNN probes across queries.
Result<JoinResult> SelectInnerJoinNaive(
    const SelectInnerJoinQuery& query,
    SelectInnerJoinStats* stats = nullptr, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

/// Procedure 1. Same output as the naive QEP.
Result<JoinResult> SelectInnerJoinCounting(
    const SelectInnerJoinQuery& query,
    SelectInnerJoinStats* stats = nullptr, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

/// Procedures 2 + 3. Same output as the naive QEP.
Result<JoinResult> SelectInnerJoinBlockMarking(
    const SelectInnerJoinQuery& query,
    PreprocessMode mode = PreprocessMode::kExhaustive,
    SelectInnerJoinStats* stats = nullptr,
    ProbePoint probe = ProbePoint::kCenter, ExecStats* exec = nullptr,
    NeighborhoodCache* shared_cache = nullptr);

}  // namespace knnq

#endif  // KNNQ_SRC_CORE_SELECT_INNER_JOIN_H_
