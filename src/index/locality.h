// Locality computation (Sankaranarayanan, Samet, Varshney [15]).
//
// Definition 2 of the paper: the *locality* of a point p is a set of
// blocks inside which p's k nearest neighbors are guaranteed to exist.
// The algorithm of [15], used as the paper's getkNN primitive, builds
// the minimum locality in two phases:
//
//   1. MAXDIST phase: pop blocks in increasing MAXDIST from p, summing
//      their point counts, until the sum reaches k. Record M, the
//      MAXDIST of the last popped block. At least k points now lie
//      within distance M of p.
//   2. MINDIST phase: every point within distance M lies in a block with
//      MINDIST <= M, so pop blocks in increasing MINDIST and add the
//      unvisited ones until MINDIST exceeds M.
//
// Procedure 5 of the paper runs the same construction with one change:
// a block joins the locality only if its MINDIST is within an externally
// supplied search threshold (counting in phase 1 is unaffected). The
// `restrict_to_threshold` parameter implements that variant; see
// DESIGN.md note 5 for why the result stays correct for the two-select
// intersection.

#ifndef KNNQ_SRC_INDEX_LOCALITY_H_
#define KNNQ_SRC_INDEX_LOCALITY_H_

#include <limits>
#include <memory>
#include <vector>

#include "src/common/point.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// Blocks guaranteed to contain the query's neighborhood, plus the
/// MAXDIST bound M that defined them.
struct Locality {
  std::vector<BlockId> blocks;
  /// The bound M from the MAXDIST phase; +inf when the index holds fewer
  /// than k points (then every block is in the locality).
  double max_dist_bound = std::numeric_limits<double>::infinity();
};

/// Running cost counters, shared by locality construction and kNN search.
struct SearchStats {
  std::size_t localities_computed = 0;
  std::size_t blocks_scanned = 0;
  std::size_t points_scanned = 0;
  /// Locality blocks whose MINDIST exceeded the running k-th distance,
  /// so their whole point span was skipped without being touched —
  /// the payoff of bound-based block skipping.
  std::size_t blocks_skipped = 0;
  /// GetKnn calls served from / missing a shared NeighborhoodCache
  /// (src/engine/neighborhood_cache.h). Both stay zero when no cache is
  /// attached, so uncached callers see unchanged stats.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// High-water capacity (bytes) of the searcher's scratch arena; a
  /// gauge (latest value), not a counter.
  std::size_t arena_bytes = 0;

  void Reset() { *this = SearchStats{}; }
};

/// Builds the locality of `query` for a k-neighborhood over `index`.
///
/// With `restrict_to_threshold` set (Procedure 5), blocks whose MINDIST
/// from `query` exceeds the threshold are counted but not returned.
/// `stats` may be null.
Locality ComputeLocality(
    const SpatialIndex& index, const Point& query, std::size_t k,
    double restrict_to_threshold = std::numeric_limits<double>::infinity(),
    SearchStats* stats = nullptr);

/// Allocation-recycling variant: builds the locality into `out`
/// (clearing its block list but keeping its capacity), uses
/// `phase1_scratch` for the phase-1 bookkeeping instead of a local
/// vector, and runs both phases on `held_scan` (created on first use,
/// restarted afterwards; it must belong to `index`). The hot path
/// (KnnSearcher) calls this with arena-owned buffers and scans so
/// steady-state locality construction allocates nothing.
void ComputeLocalityInto(const SpatialIndex& index, const Point& query,
                         std::size_t k, double restrict_to_threshold,
                         SearchStats* stats,
                         std::vector<BlockId>& phase1_scratch,
                         std::unique_ptr<BlockScan>& held_scan, Locality& out);

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_LOCALITY_H_
