// Shared benchmark infrastructure.
//
// Every bench binary regenerates one figure of the paper's Section 6.
// Dataset sizes default to laptop-friendly scales that preserve the
// figures' shapes; set KNNQ_BENCH_SCALE=<int> to multiply all
// cardinalities toward the paper's 32k-2.56M range.
//
// Datasets and indexes are memoized per process so that repeated
// benchmark cases measure only query execution, not generation.

#ifndef KNNQ_BENCH_BENCH_COMMON_H_
#define KNNQ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "benchmark/benchmark.h"
#include "src/common/bbox.h"
#include "src/common/point.h"
#include "src/common/status.h"
#include "src/core/exec_stats.h"
#include "src/index/index_factory.h"
#include "src/index/spatial_index.h"
#include "src/planner/catalog.h"
#include "src/planner/query_spec.h"

namespace knnq::bench {

/// KNNQ_BENCH_SCALE (>= 1); all cardinalities multiply by this.
std::size_t Scale();

/// The benchmark world: a Berlin-sized 30 km x 24 km extent.
BoundingBox Frame();

/// Memoized BerlinMOD-style snapshot of `n` points.
const PointSet& Berlin(std::size_t n, std::uint64_t seed = 1001,
                       PointId first_id = 0);

/// Memoized clustered relation (paper Section 6.2.1 setup: equal-size,
/// equal-area, non-overlapping clusters).
const PointSet& Clustered(std::size_t num_clusters,
                          std::size_t points_per_cluster,
                          std::uint64_t seed = 2002, PointId first_id = 0);

/// Memoized uniform relation over the frame.
const PointSet& Uniform(std::size_t n, std::uint64_t seed = 3003,
                        PointId first_id = 0);

/// Memoized index over a memoized point set (keyed by data identity and
/// index type).
const SpatialIndex& IndexOf(const PointSet& points,
                            IndexType type = IndexType::kGrid);

/// Folds a query's ExecStats into benchmark counters. Replaces the
/// ad-hoc per-bench stopwatch/counter plumbing: evaluators report the
/// uniform counters and their measured wall time directly.
void ReportExecStats(benchmark::State& state, const ExecStats& stats);

/// Reads a committed .knnql query workload: parses `text`, binds every
/// statement against `catalog`, and returns the specs in script order.
/// A workload holds queries only, so a DML statement is refused at its
/// position.
Result<std::vector<QuerySpec>> BindQueryWorkload(std::string_view text,
                                                 const Catalog& catalog);

}  // namespace knnq::bench

#endif  // KNNQ_BENCH_BENCH_COMMON_H_
