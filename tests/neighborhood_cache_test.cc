// NeighborhoodCache tests: hit/miss accounting, LRU capacity
// eviction, cross-index-structure determinism of cached values,
// per-relation invalidation, agreement with a reference LRU
// model over a long seeded operation sequence, a concurrent stress run
// (the TSan job's target), and the engine-level guarantee the whole
// subsystem exists to preserve - a multi-threaded cached RunBatch
// returns results byte-identical to uncached serial execution over all
// six query shapes and all three index structures.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::AllIndexTypes;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

NeighborhoodCacheOptions SmallCache(std::size_t capacity_bytes,
                                    std::size_t shards = 1) {
  NeighborhoodCacheOptions options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = shards;
  return options;
}

TEST(NeighborhoodCacheTest, HitAndMissAccounting) {
  const PointSet points = MakeUniform(300, 11);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache;

  CachingKnnSearcher searcher(*index, &cache);
  const Point q{.id = -1, .x = 500, .y = 400};
  const Neighborhood first = searcher.GetKnn(q, 7);
  EXPECT_EQ(searcher.stats().cache_hits, 0u);
  EXPECT_EQ(searcher.stats().cache_misses, 1u);

  const Neighborhood second = searcher.GetKnn(q, 7);
  EXPECT_EQ(searcher.stats().cache_hits, 1u);
  EXPECT_EQ(searcher.stats().cache_misses, 1u);
  EXPECT_EQ(first, second);

  // A different k is a different key.
  (void)searcher.GetKnn(q, 8);
  EXPECT_EQ(searcher.stats().cache_misses, 2u);

  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  // The lock-free footprint counter agrees with the shard walk.
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  EXPECT_NEAR(stats.hit_rate(), 1.0 / 3.0, 1e-9);
}

TEST(NeighborhoodCacheTest, CachedValueMatchesFreshComputation) {
  const PointSet points = MakeCity(1000, 13);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache;
  CachingKnnSearcher cached(*index, &cache);
  KnnSearcher plain(*index);

  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(12));
    // Probe twice: the second answer comes from the cache and must be
    // byte-identical to an uncached searcher's.
    (void)cached.GetKnn(q, k);
    EXPECT_EQ(cached.GetKnn(q, k), plain.GetKnn(q, k));
  }
  EXPECT_EQ(cache.GetStats().hits, 40u);
}

TEST(NeighborhoodCacheTest, NullCachePassesThrough) {
  const PointSet points = MakeUniform(200, 19);
  const auto index = MakeIndex(points);
  CachingKnnSearcher searcher(*index, nullptr);
  KnnSearcher plain(*index);
  const Point q{.id = -1, .x = 100, .y = 100};
  EXPECT_EQ(searcher.GetKnn(q, 5), plain.GetKnn(q, 5));
  EXPECT_EQ(searcher.stats().cache_hits, 0u);
  EXPECT_EQ(searcher.stats().cache_misses, 0u);
}

TEST(NeighborhoodCacheTest, CapacityEvictionIsLruAndBounded) {
  const PointSet points = MakeUniform(500, 23);
  const auto index = MakeIndex(points);
  // Room for only a handful of k=4 entries in a single shard.
  NeighborhoodCache cache(SmallCache(2048));
  CachingKnnSearcher searcher(*index, &cache);

  const Point hot{.id = -1, .x = 500, .y = 400};
  (void)searcher.GetKnn(hot, 4);
  for (int i = 0; i < 64; ++i) {
    // Keep the hot key recent while a stream of distinct keys churns
    // the rest of the shard.
    (void)searcher.GetKnn(hot, 4);
    (void)searcher.GetKnn(
        Point{.id = -1, .x = static_cast<double>(i * 13 % 1000),
              .y = static_cast<double>(i * 29 % 800)},
        4);
  }

  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 2048u);
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);

  // LRU kept the constantly-touched key through all that churn.
  Neighborhood out;
  EXPECT_TRUE(cache.Lookup(index.get(), hot, 4, &out));
  EXPECT_EQ(out, KnnSearcher(*index).GetKnn(hot, 4));
}

TEST(NeighborhoodCacheTest, OversizedEntryIsDropped) {
  const PointSet points = MakeUniform(400, 29);
  const auto index = MakeIndex(points);
  NeighborhoodCache cache(SmallCache(64));  // Smaller than any entry.
  CachingKnnSearcher searcher(*index, &cache);
  const Neighborhood nbr =
      searcher.GetKnn(Point{.id = -1, .x = 10, .y = 10}, 50);
  EXPECT_EQ(nbr.size(), 50u);  // The search itself is unaffected.
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(NeighborhoodCacheTest, CrossIndexStructureDeterminism) {
  // One shared cache over grid, quadtree and R-tree indexes of the
  // same relation: the entries are keyed per index object, yet hold
  // byte-identical neighborhoods, because getkNN is deterministic.
  const PointSet points = MakeClustered(4, 100, 31);
  NeighborhoodCache cache;
  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (const IndexType type : AllIndexTypes()) {
    indexes.push_back(MakeIndex(points, type));
  }

  Rng rng(37);
  for (int i = 0; i < 25; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(10));
    std::vector<Neighborhood> cached;
    for (const auto& index : indexes) {
      CachingKnnSearcher searcher(*index, &cache);
      (void)searcher.GetKnn(q, k);  // Fill.
      cached.push_back(searcher.GetKnn(q, k));  // Served from cache.
    }
    EXPECT_EQ(cached[0], cached[1]);
    EXPECT_EQ(cached[0], cached[2]);
    EXPECT_EQ(cached[0], BruteForceKnn(points, q, k));
  }
  // Per-structure keys: every (index, q, k) triple cached separately.
  EXPECT_EQ(cache.GetStats().entries, 3u * 25u);
}

TEST(NeighborhoodCacheTest, PerRelationInvalidationDropsOnlyThatRelation) {
  const PointSet points_a = MakeUniform(200, 42);
  const PointSet points_b = MakeUniform(200, 43);
  const auto index_a = MakeIndex(points_a);
  const auto index_b = MakeIndex(points_b);
  NeighborhoodCache cache;
  CachingKnnSearcher searcher_a(*index_a, &cache);
  CachingKnnSearcher searcher_b(*index_b, &cache);
  const Point q{.id = -1, .x = 500, .y = 400};
  for (std::size_t k = 1; k <= 4; ++k) {
    (void)searcher_a.GetKnn(q, k);
    (void)searcher_b.GetKnn(q, k);
  }
  ASSERT_EQ(cache.GetStats().entries, 8u);

  // Dropping a's entries leaves b's untouched and accounted.
  cache.InvalidateRelation(index_a.get());
  NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.invalidated, 4u);
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  (void)searcher_b.GetKnn(q, 1);
  EXPECT_EQ(searcher_b.stats().cache_hits, 1u);
  (void)searcher_a.GetKnn(q, 1);
  EXPECT_EQ(searcher_a.stats().cache_hits, 0u);
}

// --- Reference model: the same semantics kept the obvious way ---

/// (relation instance id, x bits, y bits, k): the cache keys
/// coordinates by bit pattern, so the model does too.
using ModelKey =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::size_t>;

ModelKey KeyOf(const SpatialIndex& relation, const Point& query,
               std::size_t k) {
  return {relation.instance_id(), std::bit_cast<std::uint64_t>(query.x),
          std::bit_cast<std::uint64_t>(query.y), k};
}

/// The documented NeighborhoodCache semantics as a list + map LRU per
/// shard: refresh on a hit and on a duplicate insert, oversize drop,
/// LRU-first eviction under capacity / shards, and per-relation
/// invalidation. Shard assignment and entry charges are
/// supplied by the caller, measured on the real cache.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t shards, std::size_t shard_capacity)
      : shards_(shards), shard_capacity_(shard_capacity) {}

  bool Lookup(std::size_t shard, const ModelKey& key, Neighborhood* out) {
    Shard& s = shards_[shard];
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++stats_.misses;
      return false;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    *out = it->second->value;
    ++stats_.hits;
    return true;
  }

  void Insert(std::size_t shard, const ModelKey& key,
              const Neighborhood& value, std::size_t cost) {
    if (cost > shard_capacity_) return;
    Shard& s = shards_[shard];
    if (const auto it = s.map.find(key); it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    while (s.bytes + cost > shard_capacity_) {
      s.bytes -= s.lru.back().cost;
      s.map.erase(s.lru.back().key);
      s.lru.pop_back();
      ++stats_.evictions;
    }
    s.lru.push_front(Entry{key, value, cost});
    s.map.emplace(key, s.lru.begin());
    s.bytes += cost;
    ++stats_.insertions;
  }

  void DropRelation(std::uint64_t relation_id) {
    for (Shard& s : shards_) {
      for (auto it = s.lru.begin(); it != s.lru.end();) {
        if (std::get<0>(it->key) != relation_id) {
          ++it;
          continue;
        }
        s.bytes -= it->cost;
        s.map.erase(it->key);
        it = s.lru.erase(it);
        ++stats_.invalidated;
      }
    }
  }

  void Clear() {
    for (Shard& s : shards_) {
      s.lru.clear();
      s.map.clear();
      s.bytes = 0;
    }
  }

  NeighborhoodCacheStats Stats() const {
    NeighborhoodCacheStats stats = stats_;
    for (const Shard& s : shards_) {
      stats.entries += s.map.size();
      stats.bytes += s.bytes;
    }
    return stats;
  }

 private:
  struct Entry {
    ModelKey key;
    Neighborhood value;
    std::size_t cost;
  };
  struct Shard {
    std::list<Entry> lru;
    std::map<ModelKey, std::list<Entry>::iterator> map;
    std::size_t bytes = 0;
  };

  std::vector<Shard> shards_;
  const std::size_t shard_capacity_;
  NeighborhoodCacheStats stats_;
};

/// A neighborhood of `size` members whose every field encodes
/// `version`, so a stale or foreign value cannot pass for a fresh one.
/// Every other one carries spare capacity: the charge must follow the
/// size, not the allocation the caller happens to hold.
Neighborhood VersionedNeighborhood(std::size_t size, std::uint64_t version) {
  Neighborhood nbr;
  if (version % 2 == 0) nbr.reserve(2 * size + 1);
  for (std::size_t i = 0; i < size; ++i) {
    const auto id = static_cast<PointId>(version * 1000 + i);
    nbr.push_back(Neighbor{
        .point = {.id = id, .x = 0.5 * static_cast<double>(id), .y = -1.0},
        .dist = static_cast<double>(i)});
  }
  return nbr;
}

/// What the cache charges for a neighborhood of `size` members: its
/// footprint after inserting that size alone into an empty cache.
std::size_t MeasuredCharge(const SpatialIndex& relation, std::size_t size) {
  NeighborhoodCache probe(SmallCache(std::size_t{1} << 30));
  probe.Insert(&relation, Point{.id = -1, .x = 1, .y = 2}, size,
               VersionedNeighborhood(size, 1));
  return probe.size_bytes();
}

/// Numbers the shard the cache puts each of `keys` in, using only its
/// documented eviction behaviour: in a cache whose shards hold one
/// small entry each, two keys share a shard exactly when inserting the
/// second evicts the first.
std::vector<std::size_t> MeasuredShards(
    const std::vector<std::tuple<const SpatialIndex*, Point, std::size_t>>&
        keys,
    std::size_t num_shards) {
  std::vector<std::size_t> shard_of(keys.size(), 0);
  if (num_shards == 1) return shard_of;
  const Neighborhood small = VersionedNeighborhood(1, 1);
  const std::size_t one_entry = MeasuredCharge(*std::get<0>(keys[0]), 1);
  std::vector<std::size_t> representatives;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& [relation, query, k] = keys[i];
    std::size_t shard = representatives.size();
    for (std::size_t c = 0; c < representatives.size(); ++c) {
      const auto& [rep_relation, rep_query, rep_k] =
          keys[representatives[c]];
      NeighborhoodCache probe(SmallCache(num_shards * one_entry, num_shards));
      probe.Insert(rep_relation, rep_query, rep_k, small);
      probe.Insert(relation, query, k, small);
      if (probe.GetStats().evictions == 1) {
        shard = c;
        break;
      }
    }
    if (shard == representatives.size()) representatives.push_back(i);
    shard_of[i] = shard;
  }
  EXPECT_LE(representatives.size(), num_shards);
  return shard_of;
}

void ExpectSameStats(const NeighborhoodCacheStats& got,
                     const NeighborhoodCacheStats& want, std::size_t op) {
  ASSERT_EQ(got.hits, want.hits) << "after op " << op;
  ASSERT_EQ(got.misses, want.misses) << "after op " << op;
  ASSERT_EQ(got.insertions, want.insertions) << "after op " << op;
  ASSERT_EQ(got.evictions, want.evictions) << "after op " << op;
  ASSERT_EQ(got.invalidated, want.invalidated) << "after op " << op;
  ASSERT_EQ(got.entries, want.entries) << "after op " << op;
  ASSERT_EQ(got.bytes, want.bytes) << "after op " << op;
}

class CacheModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheModelTest, MatchesReferenceLruOverSeededOperations) {
  const std::size_t num_shards = GetParam();
  std::vector<std::unique_ptr<SpatialIndex>> relations;
  for (std::uint64_t seed = 51; seed < 57; ++seed) {
    relations.push_back(MakeIndex(MakeUniform(30, seed)));
  }
  // Signed zeros and a NaN are distinct, findable keys (bit patterns).
  const std::vector<Point> queries = {
      {.id = -1, .x = 0.0, .y = 0.0},
      {.id = -1, .x = -0.0, .y = 0.0},
      {.id = -1, .x = std::numeric_limits<double>::quiet_NaN(), .y = 1},
      {.id = -1, .x = 10, .y = 20},
      {.id = -1, .x = 300, .y = 40},
      {.id = -1, .x = 999.5, .y = 799.5}};
  // Mixed k; 200 neighbors outgrow any shard below and are dropped.
  const std::vector<std::size_t> ks = {1, 2, 3, 5, 8, 25, 200};

  std::vector<std::tuple<const SpatialIndex*, Point, std::size_t>> keys;
  for (const auto& relation : relations) {
    for (const Point& q : queries) {
      for (const std::size_t k : ks) keys.emplace_back(relation.get(), q, k);
    }
  }
  std::map<std::size_t, std::size_t> charge;
  for (const std::size_t k : ks) {
    charge[k] = MeasuredCharge(*relations[0], k);
    ASSERT_GT(charge[k], 0u) << "k=" << k;
  }
  // A budget of a few dozen k=3 entries.
  const std::size_t capacity = 32 * charge[3];
  ASSERT_GT(charge[200], capacity / num_shards);
  const std::vector<std::size_t> shard_of = MeasuredShards(keys, num_shards);

  NeighborhoodCache cache(SmallCache(capacity, num_shards));
  ReferenceCache model(num_shards, capacity / num_shards);
  Rng rng(4242 + num_shards);
  // Lookup, Insert, InvalidateRelation, Clear: rare drops, so the
  // budget fills between them and evicts.
  const std::vector<double> weights = {50, 45, 0.9, 0.1};
  constexpr std::size_t kOps = 40000;
  std::uint64_t version = 0;
  for (std::size_t op = 0; op < kOps; ++op) {
    const std::size_t key_index = rng.NextIndex(keys.size());
    const auto& [relation, query, k] = keys[key_index];
    const ModelKey model_key = KeyOf(*relation, query, k);
    const std::size_t shard = shard_of[key_index];
    const SpatialIndex* some_relation =
        relations[rng.NextIndex(relations.size())].get();
    switch (rng.WeightedIndex(weights)) {
      case 0: {
        Neighborhood got;
        Neighborhood want;
        const bool hit = cache.Lookup(relation, query, k, &got);
        ASSERT_EQ(hit, model.Lookup(shard, model_key, &want))
            << "op " << op;
        if (hit) {
          ASSERT_EQ(got, want) << "op " << op;
        }
        break;
      }
      case 1: {
        const Neighborhood value = VersionedNeighborhood(k, ++version);
        cache.Insert(relation, query, k, value);
        model.Insert(shard, model_key, value, charge[k]);
        break;
      }
      case 2:
        cache.InvalidateRelation(some_relation);
        model.DropRelation(some_relation->instance_id());
        break;
      default:
        cache.Clear();
        model.Clear();
        break;
    }
    const NeighborhoodCacheStats want = model.Stats();
    ASSERT_NO_FATAL_FAILURE(ExpectSameStats(cache.GetStats(), want, op));
    ASSERT_EQ(cache.size_bytes(), want.bytes) << "after op " << op;
  }
  // The sequence exercised every path it is meant to compare.
  const NeighborhoodCacheStats final_stats = cache.GetStats();
  EXPECT_GT(final_stats.hits, 1000u);
  EXPECT_GT(final_stats.evictions, 100u);
  EXPECT_GT(final_stats.invalidated, 100u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CacheModelTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// --- Concurrency: the TSan job's stress target ---

TEST(NeighborhoodCacheTest, ConcurrentStressKeepsValuesAndAccounting) {
  std::vector<std::unique_ptr<SpatialIndex>> relations;
  for (std::uint64_t seed = 61; seed < 65; ++seed) {
    relations.push_back(MakeIndex(MakeUniform(30, seed)));
  }
  // Overlapping keys whose value is a pure function of the key, so
  // every hit on every thread can be checked.
  struct StressKey {
    const SpatialIndex* relation;
    Point query;
    std::size_t k;
    Neighborhood value;
  };
  std::vector<StressKey> keys;
  for (std::size_t r = 0; r < relations.size(); ++r) {
    for (int p = 0; p < 24; ++p) {
      for (const std::size_t k : {1u, 3u, 6u}) {
        keys.push_back(StressKey{
            relations[r].get(),
            Point{.id = -1, .x = 10.0 * p, .y = 7.0 * p},
            k,
            VersionedNeighborhood(k, (r * 100 + p) * 10 + k)});
      }
    }
  }

  NeighborhoodCache cache(SmallCache(16 << 10, 4));
  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 50000;
  std::vector<std::uint64_t> hits(kWorkers, 0);
  std::vector<std::uint64_t> misses(kWorkers, 0);
  std::atomic<int> wrong_values{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(900 + w);
      Neighborhood out;
      for (int op = 0; op < kOpsPerWorker; ++op) {
        const StressKey& key = keys[rng.NextIndex(keys.size())];
        if (rng.Bernoulli(0.6)) {
          if (cache.Lookup(key.relation, key.query, key.k, &out)) {
            ++hits[w];
            if (out != key.value) wrong_values.fetch_add(1);
          } else {
            ++misses[w];
          }
        } else {
          cache.Insert(key.relation, key.query, key.k, key.value);
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (std::size_t i = 0; !stop.load(); ++i) {
      cache.InvalidateRelation(relations[i % (relations.size() - 1)].get());
      (void)cache.GetStats();
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  invalidator.join();

  const NeighborhoodCacheStats stats = cache.GetStats();
  EXPECT_EQ(wrong_values.load(), 0);
  std::uint64_t total_hits = 0;
  std::uint64_t total_misses = 0;
  for (int w = 0; w < kWorkers; ++w) {
    total_hits += hits[w];
    total_misses += misses[w];
  }
  EXPECT_EQ(stats.hits, total_hits);
  EXPECT_EQ(stats.misses, total_misses);
  EXPECT_EQ(stats.bytes, cache.size_bytes());
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.invalidated, 0u);
}

// --- Engine-level equivalence: the acceptance bar of this subsystem ---

Catalog MakeCatalog(IndexType type) {
  Catalog catalog;
  IndexOptions options;
  options.type = type;
  options.block_capacity = 16;  // Many blocks: pruning paths fire.
  EXPECT_TRUE(
      catalog.AddRelation("uniform", MakeUniform(600, 141, 0), options)
          .ok());
  EXPECT_TRUE(
      catalog.AddRelation("city", MakeCity(600, 142, 100000), options)
          .ok());
  EXPECT_TRUE(catalog
                  .AddRelation("clustered",
                               MakeClustered(3, 90, 143, 200000), options)
                  .ok());
  return catalog;
}

/// `rounds` cycles of all six query shapes; the modulus keeps focal
/// points and k values repeating, so the cache sees real sharing.
std::vector<QuerySpec> SkewedSpecs(std::size_t rounds) {
  std::vector<QuerySpec> specs;
  specs.reserve(rounds * 6);
  for (std::size_t i = 0; i < rounds; ++i) {
    const double dx = static_cast<double>((i * 37) % 200);
    const double dy = static_cast<double>((i * 53) % 150);
    const std::size_t k = 1 + i % 3;
    specs.push_back(TwoSelectsSpec{
        .relation = "city",
        .s1 = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k},
        .s2 = {.focal = {.id = -1, .x = dx + 40, .y = dy + 25},
               .k = k + 6},
    });
    specs.push_back(SelectInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .select = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k + 2},
    });
    specs.push_back(SelectOuterJoinSpec{
        .outer = "city",
        .inner = "uniform",
        .join_k = 1 + k % 3,
        .select = {.focal = {.id = -1, .x = dy, .y = dx / 2}, .k = 5 + k},
    });
    specs.push_back(UnchainedJoinsSpec{
        .a = "uniform",
        .b = "city",
        .c = "clustered",
        .k_ab = 1 + k % 3,
        .k_cb = 1 + (k + 1) % 3,
    });
    specs.push_back(ChainedJoinsSpec{
        .a = "clustered",
        .b = "city",
        .c = "uniform",
        .k_ab = 1 + k % 3,
        .k_bc = 1 + (k + 2) % 3,
    });
    specs.push_back(RangeInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .range = BoundingBox(dx, dy, dx + 150, dy + 120),
    });
  }
  return specs;
}

class CachedEngineEquivalenceTest
    : public ::testing::TestWithParam<IndexType> {};

TEST_P(CachedEngineEquivalenceTest, CachedBatchEqualsUncachedSerial) {
  // Two engines over identical catalogs: one with a cache on a 4-thread
  // pool, one uncached. Every batch result must be byte-identical to
  // the uncached serial reference; repeating the batch exercises the
  // fully warm cache as well as the cold one.
  EngineOptions cached_options;
  cached_options.num_threads = 4;
  cached_options.cache_mb = 32;
  QueryEngine cached(MakeCatalog(GetParam()), cached_options);
  ASSERT_NE(cached.neighborhood_cache(), nullptr);

  EngineOptions plain_options;
  plain_options.num_threads = 1;
  QueryEngine plain(MakeCatalog(GetParam()), plain_options);
  ASSERT_EQ(plain.neighborhood_cache(), nullptr);

  const std::vector<QuerySpec> specs = SkewedSpecs(15);
  std::vector<EngineResult> serial;
  serial.reserve(specs.size());
  for (const QuerySpec& spec : specs) serial.push_back(plain.Run(spec));

  ExecStats total;
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<EngineResult> batch = cached.RunBatch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << "query " << i << ": "
                                 << batch[i].status.ToString();
      ASSERT_TRUE(serial[i].ok());
      EXPECT_EQ(batch[i].algorithm, serial[i].algorithm) << "query " << i;
      EXPECT_TRUE(batch[i].output == serial[i].output)
          << "cached batch differs from uncached serial for query " << i
          << " (pass " << pass << ")";
      EXPECT_FALSE(batch[i].stats.empty()) << "query " << i;
      total.Merge(batch[i].stats);
    }
  }
  // The skewed workload must actually share work across queries.
  EXPECT_GT(total.cache_hits, 0u);
  EXPECT_GT(total.cache_bytes, 0u);
  EXPECT_GT(cached.neighborhood_cache()->GetStats().hit_rate(), 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, CachedEngineEquivalenceTest,
    ::testing::Values(IndexType::kGrid, IndexType::kQuadtree,
                      IndexType::kRTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return std::string(ToString(info.param));
    });

TEST(CachedEngineTest, StatsAndExplainSurfaceCacheCounters) {
  EngineOptions options;
  options.num_threads = 1;
  options.cache_mb = 8;
  QueryEngine engine(MakeCatalog(IndexType::kGrid), options);
  const TwoSelectsSpec spec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = 9},
  };
  const EngineResult cold = engine.Run(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold.stats.cache_misses, 0u);
  EXPECT_GT(cold.stats.cache_bytes, 0u);

  const EngineResult warm = engine.Run(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_NE(warm.explain.find("cache_hits="), std::string::npos)
      << warm.explain;
  EXPECT_TRUE(warm.output == cold.output);
}

}  // namespace
}  // namespace knnq
