// KnnSearcher: the paper's getkNN primitive.
//
// "One can use any algorithm to compute the neighborhood of a point. In
// this paper, we employ the locality algorithm of [15]" (Section 2).
// GetKnn builds the minimum locality and extracts the neighborhood from
// the locality's points only. GetKnnRestricted is the Procedure 5
// variant whose locality is additionally clipped by a search threshold.
//
// Neighborhoods are deterministic: points are ranked by
// (distance, point id), so equal queries return identical results across
// index structures and algorithms - the property every cross-evaluator
// test in this repository relies on.

#ifndef KNNQ_SRC_INDEX_KNN_SEARCHER_H_
#define KNNQ_SRC_INDEX_KNN_SEARCHER_H_

#include <vector>

#include "src/common/point.h"
#include "src/index/locality.h"
#include "src/index/query_arena.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// One member of a neighborhood.
struct Neighbor {
  Point point;
  double dist = 0.0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.point == b.point && a.dist == b.dist;
  }
};

/// A neighborhood: the k nearest points, ascending by (distance, id).
using Neighborhood = std::vector<Neighbor>;

/// Returns true when `id` appears in `nbr`. Neighborhoods are small
/// (k elements); linear scan beats hashing for the paper's k ranges.
bool Contains(const Neighborhood& nbr, PointId id);

/// Locality-based kNN search over one index. Not thread-safe (keeps
/// cost counters and scratch state); create one per thread.
class KnnSearcher {
 public:
  explicit KnnSearcher(const SpatialIndex& index);

  /// The neighborhood of `query`: its k nearest indexed points. Returns
  /// fewer than k neighbors only when the relation itself is smaller
  /// than k.
  Neighborhood GetKnn(const Point& query, std::size_t k);

  /// Procedure 5's threshold-restricted search: the neighborhood is
  /// computed from the locality clipped to blocks with
  /// MINDIST <= threshold. The result ranks all points within the
  /// threshold exactly; entries beyond the threshold may deviate from
  /// the true neighborhood (see DESIGN.md note 5), which is harmless for
  /// the intersection the caller performs.
  Neighborhood GetKnnRestricted(const Point& query, std::size_t k,
                                double threshold);

  const SpatialIndex& index() const { return index_; }

  SearchStats& stats() { return stats_; }
  const SearchStats& stats() const { return stats_; }

  /// The searcher's scratch arena — exposed so tests can assert that
  /// steady-state queries stop growing it.
  const QueryArena& arena() const { return arena_; }

 private:
  /// Scans the blocks of locality_ nearest-first into the top k,
  /// skipping blocks (and, when `threshold` is finite, points) past the
  /// bound.
  Neighborhood NeighborhoodFromLocality(const Point& query, std::size_t k,
                                        double threshold);

  const SpatialIndex& index_;
  SearchStats stats_;
  /// Recycled buffers (block ordering, top-k heap, distance batches,
  /// locality scratch) and the held block scan: after warm-up, queries
  /// allocate nothing here.
  QueryArena arena_;
  Locality locality_;
};

/// Ground-truth kNN by exhaustive scan; the reference the property tests
/// compare every optimized path against.
Neighborhood BruteForceKnn(const PointSet& points, const Point& query,
                           std::size_t k);

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_KNN_SEARCHER_H_
