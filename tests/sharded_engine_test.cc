// Sharded-engine tests: byte-identity of every query shape across
// shard counts and index structures, copy-on-write DML equivalence
// with the in-place engine, the engine's cache and shard knobs,
// shards_pruned aggregation, and a concurrent DML-vs-reads stress the
// TSan CI job runs, which also checks that no cache entry outlives the
// shard object it was keyed by.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "src/index/sharded_index.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeUniform;

Catalog MakeCatalog(IndexType type = IndexType::kGrid) {
  Catalog catalog;
  IndexOptions options;
  options.type = type;
  options.block_capacity = 16;  // Many blocks: pruning paths fire.
  EXPECT_TRUE(
      catalog.AddRelation("uniform", MakeUniform(800, 41, 0), options).ok());
  EXPECT_TRUE(
      catalog.AddRelation("city", MakeCity(800, 42, 100000), options).ok());
  EXPECT_TRUE(catalog
                  .AddRelation("clustered", MakeClustered(3, 120, 43, 200000),
                               options)
                  .ok());
  return catalog;
}

EngineOptions WithShards(std::size_t shards) {
  EngineOptions options;
  options.num_threads = 2;
  options.index_options.shards = shards;
  options.index_options.block_capacity = 16;
  return options;
}

/// `rounds` cycles through all six QuerySpec shapes with varying
/// parameters, as in engine_test.cc.
std::vector<QuerySpec> MixedSpecs(std::size_t rounds) {
  std::vector<QuerySpec> specs;
  specs.reserve(rounds * 6);
  for (std::size_t i = 0; i < rounds; ++i) {
    const double dx = static_cast<double>((i * 37) % 900);
    const double dy = static_cast<double>((i * 53) % 700);
    const std::size_t k = 1 + i % 7;
    specs.push_back(TwoSelectsSpec{
        .relation = "city",
        .s1 = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k},
        .s2 = {.focal = {.id = -1, .x = dx + 40, .y = dy + 25}, .k = k + 6},
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

void ExpectSameResults(const QueryEngine& reference,
                       const QueryEngine& sharded,
                       const std::vector<QuerySpec>& specs,
                       const std::string& label) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const EngineResult expected = reference.Run(specs[i]);
    const EngineResult actual = sharded.Run(specs[i]);
    ASSERT_TRUE(expected.ok()) << label << " query " << i << ": "
                               << expected.status.ToString();
    ASSERT_TRUE(actual.ok()) << label << " query " << i << ": "
                             << actual.status.ToString();
    EXPECT_TRUE(actual.output == expected.output)
        << label << ": sharded result differs from unsharded for query "
        << i;
  }
}

// --- Tentpole: every query shape, every structure, byte-identical ---

class ShardedDifferentialTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(ShardedDifferentialTest, AllShapesMatchUnshardedAcrossShardCounts) {
  const IndexType type = GetParam();
  EngineOptions reference_options = WithShards(1);
  reference_options.index_options.type = type;
  const QueryEngine reference(MakeCatalog(type), reference_options);
  ASSERT_EQ(reference.shards(), 1u);

  const std::vector<QuerySpec> specs = MixedSpecs(4);
  for (const std::size_t shards : {4u, 8u}) {
    EngineOptions options = WithShards(shards);
    options.index_options.type = type;
    const QueryEngine engine(MakeCatalog(type), options);
    ASSERT_EQ(engine.shards(), shards);
    ExpectSameResults(reference, engine, specs,
                      std::string(ToString(type)) + "/shards=" +
                          std::to_string(shards));

    // The batch path (the pinned-snapshot read protocol under the
    // worker pool) agrees with serial execution too.
    const std::vector<EngineResult> batch = engine.RunBatch(specs);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status.ToString();
      EXPECT_TRUE(batch[i].output == reference.Run(specs[i]).output)
          << "batch query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, ShardedDifferentialTest,
                         ::testing::Values(IndexType::kGrid,
                                           IndexType::kQuadtree,
                                           IndexType::kRTree),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// --- Copy-on-write DML matches the in-place engine ---

TEST(ShardedEngineTest, CowDmlMatchesInPlaceDml) {
  QueryEngine reference(MakeCatalog(), WithShards(1));
  QueryEngine sharded(MakeCatalog(), WithShards(4));

  // Interleave auto-id inserts, explicit-id inserts, erases of old and
  // freshly inserted ids, and an absent-id erase, then compare.
  const std::vector<std::vector<MutationOp>> batches = {
      {MutationOp::Insert(512, 256), MutationOp::Insert(13, 700),
       MutationOp::Erase(5)},
      {MutationOp::Insert(990, 10, 424242), MutationOp::Erase(424242),
       MutationOp::Erase(987654) /* absent: 0 rows, not an error */},
      {MutationOp::Insert(1, 1), MutationOp::Insert(999, 799),
       MutationOp::Erase(100007)},
  };
  for (const auto& ops : batches) {
    for (const std::string rel : {"uniform", "city"}) {
      const EngineResult a = reference.ExecuteDml(
          DmlRequest::MutateOps(rel, ops));
      const EngineResult b = sharded.ExecuteDml(
          DmlRequest::MutateOps(rel, ops));
      ASSERT_TRUE(a.ok()) << a.status.ToString();
      ASSERT_TRUE(b.ok()) << b.status.ToString();
      EXPECT_EQ(a.rows_affected, b.rows_affected) << rel;
    }
    ExpectSameResults(reference, sharded, MixedSpecs(2), "post-mutation");
  }

  // LOAD replaces an existing relation and creates a fresh one.
  const PointSet reload = MakeUniform(300, 77, 0);
  ASSERT_TRUE(
      reference.ExecuteDml(DmlRequest::Load("uniform", reload)).ok());
  ASSERT_TRUE(sharded.ExecuteDml(DmlRequest::Load("uniform", reload)).ok());
  const PointSet fresh = MakeClustered(2, 90, 79, 500000);
  ASSERT_TRUE(reference.ExecuteDml(DmlRequest::Load("fresh", fresh)).ok());
  ASSERT_TRUE(sharded.ExecuteDml(DmlRequest::Load("fresh", fresh)).ok());
  ExpectSameResults(reference, sharded, MixedSpecs(2), "post-load");

  // Auto-id sequences advanced identically: the next auto insert gets
  // the same id in both engines.
  for (QueryEngine* engine : {&reference, &sharded}) {
    const EngineResult r = engine->ExecuteDml(DmlRequest::MutateOps(
        "city", {MutationOp::Insert(444, 333)}));
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ((*reference.catalog().Get("city"))->next_id,
            (*sharded.catalog().Get("city"))->next_id);
}

TEST(ShardedEngineTest, CowMutationFailureKeepsAppliedPrefix) {
  QueryEngine engine(MakeCatalog(), WithShards(4));
  const std::size_t before = (*engine.catalog().Get("uniform"))->index->num_points();
  // Second op is invalid (non-finite coordinate): the eight rows before
  // it stay applied, matching Catalog::Mutate's prefix semantics.
  std::vector<MutationOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(MutationOp::Insert(10.0 * i, 20.0 * i));
  }
  ops.push_back(
      MutationOp::Insert(std::numeric_limits<double>::quiet_NaN(), 1));
  const EngineResult result =
      engine.ExecuteDml(DmlRequest::MutateOps("uniform", ops));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ((*engine.catalog().Get("uniform"))->index->num_points(),
            before + 8);
}

// --- Satellite: the engine knobs ---

TEST(ShardedEngineTest, CacheKnobSizesTheEngineCache) {
  EngineOptions options;
  options.cache_mb = 8;
  const QueryEngine engine(MakeCatalog(), options);
  EXPECT_EQ(engine.options().cache_mb, 8u);
  ASSERT_NE(engine.neighborhood_cache(), nullptr);
  EXPECT_EQ(engine.neighborhood_cache()->capacity_bytes(), 8u << 20);

  EngineOptions off;
  const QueryEngine uncached(MakeCatalog(), off);
  EXPECT_EQ(uncached.neighborhood_cache(), nullptr);
}

TEST(ShardedEngineTest, CacheKnobSaturatesInsteadOfWrapping) {
  // 2^44 MiB is 2^64 bytes: a shift would wrap it to a 0-byte cache
  // that never hits. The engine saturates to SIZE_MAX instead.
  EngineOptions options;
  options.num_threads = 1;
  options.cache_mb = std::size_t{1} << 44;
  const QueryEngine engine(MakeCatalog(), options);
  ASSERT_NE(engine.neighborhood_cache(), nullptr);
  EXPECT_EQ(engine.neighborhood_cache()->capacity_bytes(), SIZE_MAX);
  const QuerySpec spec = MixedSpecs(1).front();
  ASSERT_TRUE(engine.Run(spec).ok());
  const EngineResult warm = engine.Run(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.stats.cache_hits, 0u);
  EXPECT_GT(warm.stats.cache_bytes, 0u);

  // The largest budget that fits is taken exactly.
  EngineOptions largest;
  largest.cache_mb = SIZE_MAX >> 20;
  const QueryEngine exact(MakeCatalog(), largest);
  ASSERT_NE(exact.neighborhood_cache(), nullptr);
  EXPECT_EQ(exact.neighborhood_cache()->capacity_bytes(),
            (SIZE_MAX >> 20) << 20);
}

TEST(ShardedEngineTest, ShardKnobLivesInIndexOptions) {
  EngineOptions options;
  options.index_options.shards = 6;
  const QueryEngine engine(MakeCatalog(), options);
  EXPECT_EQ(engine.shards(), 6u);
  for (const std::string& name : engine.catalog().Names()) {
    const auto* sharded = dynamic_cast<const ShardedIndex*>(
        (*engine.catalog().Get(name))->index.get());
    ASSERT_NE(sharded, nullptr) << name;
    EXPECT_EQ(sharded->num_shards(), 6u) << name;
  }
}

// --- Satellite: shards_pruned aggregates into the engine snapshot ---

TEST(ShardedEngineTest, StatsSnapshotAggregatesShardsPruned) {
  QueryEngine engine(MakeCatalog(), WithShards(8));
  // Corner-focused selects on clustered data: far shards get pruned.
  for (std::size_t i = 0; i < 12; ++i) {
    const EngineResult result = engine.Run(TwoSelectsSpec{
        .relation = "clustered",
        .s1 = {.focal = {.id = -1, .x = 5.0 * i, .y = 3.0 * i}, .k = 2},
        .s2 = {.focal = {.id = -1, .x = 5.0 * i + 9, .y = 3.0 * i + 7},
               .k = 3},
    });
    ASSERT_TRUE(result.ok());
  }
  const EngineStatsSnapshot snapshot = engine.StatsSnapshot();
  EXPECT_EQ(snapshot.queries, 12u);
  EXPECT_GT(snapshot.totals.shards_pruned, 0u)
      << "scatter-gather kNN on an 8-way sharded relation must skip "
         "shards past the k-th neighbor bound";

  // The unsharded engine never prunes shards.
  QueryEngine flat(MakeCatalog(), WithShards(1));
  ASSERT_TRUE(flat.Run(MixedSpecs(1).front()).ok());
  EXPECT_EQ(flat.StatsSnapshot().totals.shards_pruned, 0u);
}

// --- Concurrency: COW writers never stall or tear pinned readers ---
// (Run under TSan in CI; also a functional smoke in plain builds.)

TEST(ShardedEngineTest, ConcurrentDmlAndReadsAreSafe) {
  EngineOptions options = WithShards(4);
  options.cache_mb = 4;  // Exercise per-shard cache retirement too.
  QueryEngine engine(MakeCatalog(), options);

  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kRounds = 40;
  std::atomic<std::size_t> read_errors{0};
  std::atomic<std::size_t> write_errors{0};

  std::vector<std::thread> threads;
  // Writers hammer distinct relations: independent lanes commit
  // concurrently.
  const std::string write_targets[kWriters] = {"uniform", "city"};
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < kRounds; ++i) {
        const double x = static_cast<double>((w * 131 + i * 17) % 1000);
        const double y = static_cast<double>((w * 57 + i * 23) % 800);
        const PointId id = 900000 + static_cast<PointId>(w * kRounds + i);
        const EngineResult ins = engine.ExecuteDml(DmlRequest::MutateOps(
            write_targets[w], {MutationOp::Insert(x, y, id)}));
        if (!ins.ok()) ++write_errors;
        const EngineResult del = engine.ExecuteDml(DmlRequest::MutateOps(
            write_targets[w], {MutationOp::Erase(id)}));
        if (!del.ok()) ++write_errors;
      }
    });
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const std::vector<QuerySpec> specs = MixedSpecs(2);
      for (std::size_t i = 0; i < kRounds; ++i) {
        const EngineResult result =
            engine.Run(specs[(r * kRounds + i) % specs.size()]);
        if (!result.ok()) ++read_errors;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(write_errors.load(), 0u);
  // Every transient point was erased again: the catalog converged to
  // its initial cardinalities.
  EXPECT_EQ((*engine.catalog().Get("uniform"))->index->num_points(), 800u);
  EXPECT_EQ((*engine.catalog().Get("city"))->index->num_points(), 800u);

  // Every cache entry is keyed by a live object: once the entries of
  // every current relation and shard are dropped, nothing is left. A
  // reader still running on a replaced shard must not leave entries
  // nothing can reach.
  NeighborhoodCache& cache = *engine.neighborhood_cache();
  for (const std::string& name : engine.catalog().Names()) {
    const SpatialIndex* index = (*engine.catalog().Get(name))->index.get();
    const auto* sharded = dynamic_cast<const ShardedIndex*>(index);
    ASSERT_NE(sharded, nullptr) << name;
    for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
      cache.InvalidateRelation(&sharded->shard(s));
    }
    cache.InvalidateRelation(index);
  }
  EXPECT_EQ(cache.GetStats().entries, 0u)
      << "entries keyed by replaced shard objects remain";
  EXPECT_EQ(cache.size_bytes(), 0u);
}

}  // namespace
}  // namespace knnq
