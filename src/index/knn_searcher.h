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

class ShardedIndex;

/// Per-shard neighborhood memoization, implemented by the engine's
/// cache layer (src/engine/neighborhood_cache.h). Abstract here so the
/// index layer's scatter-gather search can consult a cache without
/// depending on src/engine. Entries are keyed by the shard OBJECT
/// (instance_id), so copy-on-write shard replacement invalidates only
/// the replaced shard's entries — the cached partial results of
/// untouched shards keep serving.
class ShardMemo {
 public:
  virtual ~ShardMemo() = default;

  /// Fills `*out` with the cached full k-neighborhood of `query` over
  /// `shard` and returns true, or returns false on a miss.
  virtual bool Lookup(const SpatialIndex& shard, const Point& query,
                      std::size_t k, Neighborhood* out) = 0;

  /// Caches `neighborhood` as the full k-neighborhood of `query` over
  /// `shard`.
  virtual void Store(const SpatialIndex& shard, const Point& query,
                     std::size_t k, const Neighborhood& neighborhood) = 0;
};

/// Locality-based kNN search over one index. Not thread-safe (keeps
/// cost counters and scratch state); create one per thread.
///
/// A sharded relation (ShardedIndex) is searched scatter-gather: shards
/// are visited in MINDIST order from the query, the first shard seeds
/// the k-candidate bound, and every later shard whose bounds lie
/// strictly beyond the running k-th distance is pruned without opening
/// it (SearchStats::shards_pruned). Results are byte-identical to the
/// unsharded search: candidates are ranked by the same (distance, id)
/// order and no shard that could contribute a winner is skipped.
class KnnSearcher {
 public:
  explicit KnnSearcher(const SpatialIndex& index);

  /// The neighborhood of `query`: its k nearest indexed points. Returns
  /// fewer than k neighbors only when the relation itself is smaller
  /// than k.
  Neighborhood GetKnn(const Point& query, std::size_t k);

  /// GetKnn consulting `memo` (may be null) for per-shard cached
  /// neighborhoods; only the sharded path uses the memo — the engine's
  /// caching layer handles whole-relation caching for plain indexes.
  Neighborhood GetKnn(const Point& query, std::size_t k, ShardMemo* memo);

  /// True when the underlying relation is a ShardedIndex (GetKnn runs
  /// scatter-gather).
  bool sharded() const { return sharded_ != nullptr; }

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
  Neighborhood NeighborhoodFromLocality(const Point& query, std::size_t k,
                                        const Locality& locality,
                                        double threshold);

  /// Scans `locality`'s blocks of `index` nearest-first into `topk`,
  /// skipping blocks (and, when `threshold` is finite, points) past the
  /// bound. The block-scan core shared by the plain and per-shard
  /// paths.
  void AccumulateFromLocality(const SpatialIndex& index, const Point& query,
                              const Locality& locality, double threshold,
                              TopKQueue& topk);

  /// The scatter-gather search described in the class comment.
  Neighborhood GetKnnSharded(const Point& query, std::size_t k,
                             ShardMemo* memo);

  /// Full (unrestricted) k-neighborhood over shard `shard` — the
  /// cacheable unit the memo stores. Uses shard_heap_, not the arena
  /// heap, which holds the global candidates.
  Neighborhood SearchOne(std::size_t shard, const Point& query,
                         std::size_t k);

  /// Arena scan slots: kOwnScan scans index_ itself (plain searches and
  /// GetKnnRestricted), ShardScan(s) scans shard s of a sharded index_.
  static constexpr std::size_t kOwnScan = 0;
  static std::size_t ShardScan(std::size_t shard) { return 1 + shard; }

  const SpatialIndex& index_;
  /// Non-null when index_ is a ShardedIndex.
  const ShardedIndex* sharded_ = nullptr;
  SearchStats stats_;
  /// Recycled buffers (block ordering, top-k heap, distance batches,
  /// locality scratch) and held block scans: after warm-up, queries
  /// allocate nothing here.
  QueryArena arena_;
  Locality locality_;
  /// Scatter-gather scratch: (MINDIST^2, shard) visit order and the
  /// per-shard top-k storage. Recycled like the arena buffers.
  std::vector<std::pair<double, std::size_t>> shard_order_;
  std::vector<TopKEntry> shard_heap_;
};

/// Ground-truth kNN by exhaustive scan; the reference the property tests
/// compare every optimized path against.
Neighborhood BruteForceKnn(const PointSet& points, const Point& query,
                           std::size_t k);

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_KNN_SEARCHER_H_
