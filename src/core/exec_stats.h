// ExecStats: the uniform execution counters every src/core evaluator
// reports, regardless of query shape or algorithm.
//
// The per-family structs (SelectInnerJoinStats, ChainedJoinsStats, ...)
// keep their algorithm-specific counters for ablation benches and
// targeted tests; ExecStats is the common denominator the engine layer
// aggregates across heterogeneous plans and surfaces in EXPLAIN, CLI
// and benchmark output.

#ifndef KNNQ_SRC_CORE_EXEC_STATS_H_
#define KNNQ_SRC_CORE_EXEC_STATS_H_

#include <cstddef>
#include <string>

#include "src/index/locality.h"

namespace knnq {

/// Execution counters of one evaluator call (or, merged, one batch).
struct ExecStats {
  /// Index blocks popped from block scans: locality construction plus
  /// the direct pruning scans of Counting and Block-Marking.
  std::size_t blocks_scanned = 0;
  /// Locality blocks skipped wholesale because their MINDIST exceeded
  /// the running k-th distance (bound-based block skipping).
  std::size_t blocks_skipped = 0;
  /// Candidate points compared against a query point during
  /// neighborhood extraction.
  std::size_t points_compared = 0;
  /// getkNN invocations (localities computed).
  std::size_t neighborhoods_computed = 0;
  /// Outer tuples or whole blocks excluded without neighborhood work -
  /// the quantity the paper's optimizations exist to maximize.
  std::size_t candidates_pruned = 0;
  /// Wall-clock time of the evaluation. Evaluators leave this at zero;
  /// PhysicalPlan::Execute fills it so counter accumulation stays out
  /// of the timed region's hot loops.
  double wall_seconds = 0.0;
  /// getkNN probes served from the engine's shared NeighborhoodCache
  /// (a hit skips locality construction entirely) vs. computed and
  /// memoized. Both zero when the engine runs without a cache.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Footprint snapshot of the shared cache after this query (bytes).
  /// Filled by QueryEngine::Run; a snapshot, not a per-query cost.
  std::size_t cache_bytes = 0;
  /// Scratch-arena footprint of the searcher(s) that ran this query
  /// (bytes). A gauge like cache_bytes: merging keeps the maximum.
  std::size_t arena_bytes = 0;

  /// Folds a KnnSearcher's SearchStats into the scan counters.
  void AddSearch(const SearchStats& search) {
    blocks_scanned += search.blocks_scanned;
    blocks_skipped += search.blocks_skipped;
    points_compared += search.points_scanned;
    neighborhoods_computed += search.localities_computed;
    cache_hits += search.cache_hits;
    cache_misses += search.cache_misses;
    if (search.arena_bytes > arena_bytes) arena_bytes = search.arena_bytes;
  }

  /// Sums counters and wall time (batch aggregation). cache_bytes and
  /// arena_bytes are footprint snapshots, so merging keeps the maximum,
  /// not the sum.
  void Merge(const ExecStats& other) {
    blocks_scanned += other.blocks_scanned;
    blocks_skipped += other.blocks_skipped;
    points_compared += other.points_compared;
    neighborhoods_computed += other.neighborhoods_computed;
    candidates_pruned += other.candidates_pruned;
    wall_seconds += other.wall_seconds;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    if (other.cache_bytes > cache_bytes) cache_bytes = other.cache_bytes;
    if (other.arena_bytes > arena_bytes) arena_bytes = other.arena_bytes;
  }

  /// True when every counter (wall time and cache footprint aside) is
  /// zero. A fully cache-served query is not empty (its hits count),
  /// and neither is one answered purely by skipping: blocks_skipped is
  /// work evidence too.
  bool empty() const {
    return blocks_scanned == 0 && blocks_skipped == 0 &&
           points_compared == 0 && neighborhoods_computed == 0 &&
           candidates_pruned == 0 && cache_hits == 0 && cache_misses == 0;
  }

  /// One-line rendering, e.g.
  /// "blocks=12 skipped=4 points=480 neighborhoods=3 pruned=0
  /// arena_bytes=2048 wall=0.52ms"; when a cache was in play,
  /// " cache_hits=5 cache_misses=2 cache_bytes=.." is appended.
  std::string ToString() const;

  /// JSON object, field for field: `{"blocks_scanned": ...,
  /// "wall_ms": ...}`. The single renderer behind the wire protocol's
  /// "stats" field and the slow-query log, so both emit identical
  /// bytes.
  std::string ToJson() const;
};

}  // namespace knnq

#endif  // KNNQ_SRC_CORE_EXEC_STATS_H_
