#include "src/index/knn_searcher.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/index/distance_kernel.h"
#include "src/index/sharded_index.h"
#include "src/index/topk.h"

namespace knnq {

namespace {

/// Materializes sorted top-k entries as a Neighborhood (true distances,
/// ascending by (distance, id)).
Neighborhood ToNeighborhood(const std::vector<TopKEntry>& sorted) {
  Neighborhood result(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TopKEntry& e = sorted[i];
    result[i] = Neighbor{Point{.id = e.id, .x = e.x, .y = e.y},
                         std::sqrt(e.sq_dist)};
  }
  return result;
}

}  // namespace

bool Contains(const Neighborhood& nbr, PointId id) {
  for (const Neighbor& n : nbr) {
    if (n.point.id == id) return true;
  }
  return false;
}

KnnSearcher::KnnSearcher(const SpatialIndex& index)
    : index_(index), sharded_(dynamic_cast<const ShardedIndex*>(&index)) {}

Neighborhood KnnSearcher::GetKnn(const Point& query, std::size_t k) {
  return GetKnn(query, k, nullptr);
}

Neighborhood KnnSearcher::GetKnn(const Point& query, std::size_t k,
                                 ShardMemo* memo) {
  if (sharded_ != nullptr) return GetKnnSharded(query, k, memo);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ComputeLocalityInto(index_, query, k, kInf, &stats_, arena_.phase1(),
                      arena_.scan(kOwnScan), locality_);
  return NeighborhoodFromLocality(query, k, locality_, kInf);
}

Neighborhood KnnSearcher::GetKnnSharded(const Point& query, std::size_t k,
                                        ShardMemo* memo) {
  if (k == 0) return {};
  ++stats_.localities_computed;
  const ShardedIndex& sharded = *sharded_;

  // Scatter order: shards by squared MINDIST from the query to their
  // data bounds, ties by shard number — deterministic and, like block
  // ordering in NeighborhoodFromLocality, purely an optimization.
  shard_order_.clear();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const SpatialIndex& child = sharded.shard(s);
    if (child.num_points() == 0) continue;
    shard_order_.emplace_back(child.bounds().SquaredMinDist(query), s);
  }
  std::sort(shard_order_.begin(), shard_order_.end());

  TopKQueue topk(k, arena_.heap());
  for (std::size_t i = 0; i < shard_order_.size(); ++i) {
    const auto& [sq_min, s] = shard_order_[i];
    // Distance-bound shard pruning: a shard whose bounds lie strictly
    // beyond the running k-th distance cannot hold a winner (a tie can
    // still win on id, hence strict >). The list is MINDIST-sorted, so
    // the first pruned shard proves the rest are prunable too.
    if (sq_min > topk.threshold()) {
      stats_.shards_pruned += shard_order_.size() - i;
      break;
    }
    const SpatialIndex& child = sharded.shard(s);
    if (memo != nullptr) {
      // Cached path: full per-shard neighborhoods are the cacheable
      // unit (they stay valid whatever bound other shards establish).
      Neighborhood child_nbr;
      if (memo->Lookup(child, query, k, &child_nbr)) {
        ++stats_.cache_hits;
      } else {
        ++stats_.cache_misses;
        child_nbr = SearchOne(s, query, k);
        memo->Store(child, query, k, child_nbr);
      }
      for (const Neighbor& n : child_nbr) {
        // Recompute the squared distance rather than squaring n.dist:
        // bit-identical to the batch kernel, so cached and uncached
        // merges produce byte-identical neighborhoods.
        topk.Push(TopKEntry{SquaredDistance(n.point, query), n.point.id,
                            n.point.x, n.point.y});
      }
    } else {
      // Uncached path: clip the shard's locality to the running bound
      // (Procedure 5's restricted search — exact for every point that
      // could still enter the top k).
      const double clip = std::sqrt(topk.threshold());
      ComputeLocalityInto(child, query, k, clip, &stats_, arena_.phase1(),
                          arena_.scan(ShardScan(s)), locality_);
      --stats_.localities_computed;  // Counted once per gather, not per shard.
      AccumulateFromLocality(child, query, locality_, clip, topk);
    }
  }
  stats_.arena_bytes = arena_.bytes() +
                       locality_.blocks.capacity() * sizeof(BlockId) +
                       shard_order_.capacity() * sizeof(shard_order_[0]) +
                       shard_heap_.capacity() * sizeof(TopKEntry);
  return ToNeighborhood(topk.SortAscending());
}

Neighborhood KnnSearcher::SearchOne(std::size_t shard, const Point& query,
                                    std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const SpatialIndex& index = sharded_->shard(shard);
  ComputeLocalityInto(index, query, k, kInf, &stats_, arena_.phase1(),
                      arena_.scan(ShardScan(shard)), locality_);
  --stats_.localities_computed;  // Counted once per gather, not per shard.
  TopKQueue topk(k, shard_heap_);
  AccumulateFromLocality(index, query, locality_, kInf, topk);
  return ToNeighborhood(topk.SortAscending());
}

Neighborhood KnnSearcher::GetKnnRestricted(const Point& query, std::size_t k,
                                           double threshold) {
  ComputeLocalityInto(index_, query, k, threshold, &stats_, arena_.phase1(),
                      arena_.scan(kOwnScan), locality_);
  // Individual points beyond the threshold are skipped as well: no such
  // point can displace a within-threshold point from the top k (any
  // point preceding a within-threshold point is itself within the
  // threshold), and the caller's final intersection discards them
  // regardless. This keeps the candidate heap small when k is large.
  return NeighborhoodFromLocality(query, k, locality_, threshold);
}

Neighborhood KnnSearcher::NeighborhoodFromLocality(const Point& query,
                                                   std::size_t k,
                                                   const Locality& locality,
                                                   double threshold) {
  if (k == 0 || locality.blocks.empty()) return {};
  TopKQueue topk(k, arena_.heap());
  AccumulateFromLocality(index_, query, locality, threshold, topk);
  stats_.arena_bytes =
      arena_.bytes() + locality_.blocks.capacity() * sizeof(BlockId);
  return ToNeighborhood(topk.SortAscending());
}

void KnnSearcher::AccumulateFromLocality(const SpatialIndex& index,
                                         const Point& query,
                                         const Locality& locality,
                                         double threshold, TopKQueue& topk) {
  const bool restricted = !std::isinf(threshold);

  // Visit locality blocks nearest-first so the heap bound can cut off
  // the scan early; [15] guarantees correctness for any visit order, so
  // ordering is purely an optimization.
  auto& ordered = arena_.ordered_blocks();
  ordered.reserve(locality.blocks.size());
  for (const BlockId id : locality.blocks) {
    ordered.emplace_back(index.block(id).box.SquaredMinDist(query), id);
  }
  std::sort(ordered.begin(), ordered.end());

  for (std::size_t bi = 0; bi < ordered.size(); ++bi) {
    const auto& [sq_min_dist, id] = ordered[bi];
    // Bound-based block skip. Strict >: a block at exactly the k-th
    // distance can still hold a point that wins the (distance, id)
    // tie-break. The list is MINDIST-sorted, so the first block past
    // the bound proves every remaining block is skippable too.
    if (sq_min_dist > topk.threshold()) {
      stats_.blocks_skipped += ordered.size() - bi;
      break;
    }
    ++stats_.blocks_scanned;
    const BlockColumns cols = index.BlockSoA(id);
    stats_.points_scanned += cols.size;
    double* sq = arena_.distances(cols.size);
    SquaredDistanceBatch(cols.x, cols.y, cols.size, query.x, query.y, sq);
    for (std::size_t i = 0; i < cols.size; ++i) {
      // Compare in sqrt space: the caller derived the threshold with the
      // same sqrt, so the boundary point is kept exactly (sq_dist
      // against a squared threshold can lose it to rounding).
      if (restricted && std::sqrt(sq[i]) > threshold) continue;
      topk.Push(TopKEntry{sq[i], cols.id[i], cols.x[i], cols.y[i]});
    }
  }
}

Neighborhood BruteForceKnn(const PointSet& points, const Point& query,
                           std::size_t k) {
  std::vector<TopKEntry> storage;
  TopKQueue topk(k, storage);
  for (const Point& p : points) {
    topk.Push(TopKEntry{SquaredDistance(p, query), p.id, p.x, p.y});
  }
  return ToNeighborhood(topk.SortAscending());
}

}  // namespace knnq
