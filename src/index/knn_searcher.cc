#include "src/index/knn_searcher.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/index/distance_kernel.h"
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

KnnSearcher::KnnSearcher(const SpatialIndex& index) : index_(index) {}

Neighborhood KnnSearcher::GetKnn(const Point& query, std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ComputeLocalityInto(index_, query, k, kInf, &stats_, arena_.phase1(),
                      arena_.scan(), locality_);
  return NeighborhoodFromLocality(query, k, kInf);
}

Neighborhood KnnSearcher::GetKnnRestricted(const Point& query, std::size_t k,
                                           double threshold) {
  ComputeLocalityInto(index_, query, k, threshold, &stats_, arena_.phase1(),
                      arena_.scan(), locality_);
  // Individual points beyond the threshold are skipped as well: no such
  // point can displace a within-threshold point from the top k (any
  // point preceding a within-threshold point is itself within the
  // threshold), and the caller's final intersection discards them
  // regardless. This keeps the candidate heap small when k is large.
  return NeighborhoodFromLocality(query, k, threshold);
}

Neighborhood KnnSearcher::NeighborhoodFromLocality(const Point& query,
                                                   std::size_t k,
                                                   double threshold) {
  if (k == 0 || locality_.blocks.empty()) return {};
  TopKQueue topk(k, arena_.heap());
  const bool restricted = !std::isinf(threshold);

  // Visit locality blocks nearest-first so the heap bound can cut off
  // the scan early; [15] guarantees correctness for any visit order, so
  // ordering is purely an optimization.
  auto& ordered = arena_.ordered_blocks();
  ordered.reserve(locality_.blocks.size());
  for (const BlockId id : locality_.blocks) {
    ordered.emplace_back(index_.block(id).box.SquaredMinDist(query), id);
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
    const BlockColumns cols = index_.BlockSoA(id);
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
  stats_.arena_bytes =
      arena_.bytes() + locality_.blocks.capacity() * sizeof(BlockId);
  return ToNeighborhood(topk.SortAscending());
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
