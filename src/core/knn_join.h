// kNN-join: E1 JOIN_kNN E2 - all pairs (e1, e2) where e2 is among the k
// closest points of E2 to e1. The paper's second base operation.
//
// The join is evaluated per outer tuple with the locality-based getkNN.

#ifndef KNNQ_SRC_CORE_KNN_JOIN_H_
#define KNNQ_SRC_CORE_KNN_JOIN_H_

#include "src/common/status.h"
#include "src/core/exec_stats.h"
#include "src/core/result_types.h"
#include "src/index/spatial_index.h"

namespace knnq {

class NeighborhoodCache;  // src/engine/neighborhood_cache.h

/// Evaluates the kNN-join and materializes all pairs in canonical order.
/// Fails when k == 0. `exec` (optional) accumulates scan counters;
/// `shared_cache` (optional) memoizes per-outer-point probes across
/// queries.
Result<JoinResult> KnnJoin(const PointSet& outer, const SpatialIndex& inner,
                           std::size_t k, ExecStats* exec = nullptr,
                           NeighborhoodCache* shared_cache = nullptr);

}  // namespace knnq

#endif  // KNNQ_SRC_CORE_KNN_JOIN_H_
