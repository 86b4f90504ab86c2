// NeighborhoodCache: a sharded, thread-safe, bounded memo of getkNN
// results shared ACROSS queries.
//
// The paper's chained-join cache (Section 4.2.1) reuses b-neighborhoods
// within one query; under batch load (QueryEngine::RunBatch) different
// queries over the same relations recompute identical neighborhoods -
// repeated focal points, repeated (outer point, join k) probes, and
// Block-Marking's block-center probes. This cache memoizes the full
// GetKnn primitive under the key (relation, query point, k) so that
// work is shared across the whole batch.
//
// Only unrestricted GetKnn results are cached. GetKnnRestricted output
// depends on the caller-supplied threshold (entries beyond it may
// deviate from the true neighborhood, see DESIGN.md note 5), so those
// searches always pass through - keeping cached and uncached execution
// byte-identical.
//
// Layout: the key space is split over power-of-two shards, each one
// mutex guarding a flat table. An entry is ONE allocation holding its
// key, its intrusive LRU links and its neighbors inline; the shard
// finds it through an open-addressing index of entry pointers (linear
// probing, backward-shift deletion, power-of-two size, at most half
// full). Eviction is LRU per shard with a byte budget of
// capacity_bytes / num_shards, and an entry is charged what it really
// holds: its malloc chunk plus its two index slots. Hit, miss,
// insertion, eviction and invalidation counts are plain per-shard
// fields under the shard mutex, summed by GetStats(); only the total
// footprint is an atomic, so size_bytes() can read it without a lock.

#ifndef KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_
#define KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/point.h"
#include "src/index/knn_searcher.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// Cache construction knobs.
struct NeighborhoodCacheOptions {
  /// Total byte budget across all shards. A cache of 0 bytes holds
  /// nothing (every Insert is dropped) but stays safe to use.
  std::size_t capacity_bytes = 64ull << 20;

  /// Requested shard count; rounded up to a power of two, minimum 1.
  /// More shards mean less lock contention under RunBatch.
  std::size_t num_shards = 16;
};

/// Monotone counters plus a point-in-time footprint snapshot.
struct NeighborhoodCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Entries dropped by per-relation invalidation (not LRU pressure).
  std::uint64_t invalidated = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Sharded (relation, query point, k) -> Neighborhood memo. All public
/// member functions are thread-safe.
class NeighborhoodCache {
 public:
  explicit NeighborhoodCache(NeighborhoodCacheOptions options = {});
  ~NeighborhoodCache();

  NeighborhoodCache(const NeighborhoodCache&) = delete;
  NeighborhoodCache& operator=(const NeighborhoodCache&) = delete;

  /// On a hit, copies the cached neighborhood into `*out`, refreshes
  /// the entry's LRU position and returns true. Identity of `relation`
  /// is the index OBJECT via its process-unique instance_id(): two
  /// structures over the same points cache separately (and, GetKnn
  /// being deterministic, hold byte-identical values), and a new index
  /// can never serve the entries of a destroyed one (a reused heap
  /// address would; instance ids are never reused).
  bool Lookup(const SpatialIndex* relation, const Point& query,
              std::size_t k, Neighborhood* out);

  /// Memoizes a computed neighborhood. Entries larger than a whole
  /// shard's budget are dropped before anything is allocated;
  /// otherwise the shard evicts LRU-first until the new entry fits.
  /// Inserting a key that is already present (a concurrent miss on
  /// both threads) only refreshes its position.
  void Insert(const SpatialIndex* relation, const Point& query,
              std::size_t k, const Neighborhood& neighborhood);

  /// Drops every entry. Counters other than `entries`/`bytes` persist.
  void Clear();

  /// Drops only the entries cached for `relation`, leaving every other
  /// relation's neighborhoods hot — the point of keying invalidation
  /// per relation instead of nuking the cache on any catalog change.
  /// QueryEngine::ExecuteDml calls it when a write moved the relation's
  /// Catalog generation.
  void InvalidateRelation(const SpatialIndex* relation);

  NeighborhoodCacheStats GetStats() const;

  /// Current footprint from a relaxed atomic - no shard locks. The
  /// per-query cache_bytes snapshot in ExecStats reads this.
  std::size_t size_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  /// One lock domain: a flat table plus its LRU list and counters.
  /// Defined in neighborhood_cache.cc.
  struct Shard;

  Shard& ShardFor(std::uint64_t hash);

  const std::size_t capacity_bytes_;
  const std::size_t shard_capacity_;
  /// log2 of the shard count: a key's shard is its hash's top bits.
  const int shard_bits_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> bytes_{0};
};

/// Drop-in KnnSearcher with an optional shared cache behind GetKnn.
/// With a null cache it is a plain KnnSearcher; with one attached,
/// GetKnn consults the memo first and records hits/misses in the
/// searcher's SearchStats (folded into ExecStats by the evaluators).
/// GetKnnRestricted always passes through (see the cache's header
/// comment). Like KnnSearcher, not thread-safe: one per thread; the
/// cache itself is safely shared.
class CachingKnnSearcher {
 public:
  explicit CachingKnnSearcher(const SpatialIndex& index,
                              NeighborhoodCache* cache = nullptr)
      : searcher_(index), cache_(cache) {}

  Neighborhood GetKnn(const Point& query, std::size_t k);

  Neighborhood GetKnnRestricted(const Point& query, std::size_t k,
                                double threshold) {
    return searcher_.GetKnnRestricted(query, k, threshold);
  }

  const SpatialIndex& index() const { return searcher_.index(); }

  SearchStats& stats() { return searcher_.stats(); }
  const SearchStats& stats() const { return searcher_.stats(); }

 private:
  KnnSearcher searcher_;
  NeighborhoodCache* cache_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_ENGINE_NEIGHBORHOOD_CACHE_H_
