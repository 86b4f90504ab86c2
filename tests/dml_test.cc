// Mutable-relation tests: the differential mutation harness (the
// oracle the suite lacked), per-structure maintenance unit tests, the
// engine's reader/writer protocol under concurrency, per-relation
// cache invalidation, and DML interleaved with queries in one script.
//
// The differential harness is the heart: a seeded random interleaving
// of insert/delete/query batches where, after every checkpoint, all
// six query shapes over {grid, quadtree, rtree} must return results
// byte-identical on three evaluators —
//   (a) the incrementally maintained engine under test,
//   (b) an engine over indexes rebuilt from scratch from shadow truth,
//   (c) the conceptually correct naive plans (force_naive) over (b) —
// and, at the final checkpoint, the index-free brute-force references
// of tests/test_util.h.

#include <atomic>
#include <cstddef>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "src/index/index_factory.h"
#include "src/index/knn_searcher.h"
#include "src/lang/parser.h"
#include "src/planner/catalog.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::AllIndexTypes;
using testing::MakeClustered;
using testing::MakeCity;
using testing::MakeUniform;
using testing::RefChained;
using testing::RefSelectInnerJoin;
using testing::RefTwoSelects;
using testing::RefUnchained;

// --- Brute-force references for the two shapes test_util lacks ---

JoinResult RefSelectOuterJoin(const PointSet& outer, const PointSet& inner,
                              std::size_t join_k, const Point& focal,
                              std::size_t select_k) {
  const Neighborhood nbr_f = BruteForceKnn(outer, focal, select_k);
  JoinResult pairs;
  for (const Point& e1 : outer) {
    if (!Contains(nbr_f, e1.id)) continue;
    for (const Neighbor& n : BruteForceKnn(inner, e1, join_k)) {
      pairs.push_back(JoinPair{e1, n.point});
    }
  }
  Canonicalize(pairs);
  return pairs;
}

JoinResult RefRangeInnerJoin(const PointSet& outer, const PointSet& inner,
                             std::size_t join_k, const BoundingBox& range) {
  JoinResult pairs;
  for (const Point& e1 : outer) {
    for (const Neighbor& n : BruteForceKnn(inner, e1, join_k)) {
      if (range.Contains(n.point)) pairs.push_back(JoinPair{e1, n.point});
    }
  }
  Canonicalize(pairs);
  return pairs;
}

// --- The differential harness ---

IndexOptions SmallBlocks(IndexType type) {
  IndexOptions options;
  options.type = type;
  options.block_capacity = 16;
  return options;
}

/// The six paper query shapes over relations A, B, C, parameterized so
/// checkpoints probe different regions / k values.
std::vector<QuerySpec> SixShapes(double dx, double dy, std::size_t k) {
  return {
      TwoSelectsSpec{
          .relation = "A",
          .s1 = {.focal = {.id = -1, .x = 200 + dx, .y = 160 + dy}, .k = k},
          .s2 = {.focal = {.id = -1, .x = 240 + dx, .y = 200 + dy},
                 .k = k + 5}},
      SelectInnerJoinSpec{
          .outer = "B",
          .inner = "A",
          .join_k = 1 + k % 4,
          .select = {.focal = {.id = -1, .x = 500 - dx, .y = 400 - dy},
                     .k = k + 3}},
      SelectOuterJoinSpec{
          .outer = "A",
          .inner = "C",
          .join_k = 2,
          .select = {.focal = {.id = -1, .x = 300 + dy, .y = 300 + dx},
                     .k = k + 6}},
      UnchainedJoinsSpec{
          .a = "A", .b = "B", .c = "C", .k_ab = 1 + k % 3, .k_cb = 2},
      ChainedJoinsSpec{
          .a = "C", .b = "A", .c = "B", .k_ab = 2, .k_bc = 1 + k % 3},
      RangeInnerJoinSpec{
          .outer = "C",
          .inner = "B",
          .join_k = 1 + k % 4,
          .range = BoundingBox(100 + dx, 80 + dy, 600 + dx, 500 + dy)},
  };
}

struct Shadow {
  std::string name;
  PointSet truth;
};

Catalog CatalogFrom(const std::vector<Shadow>& shadows, IndexType type) {
  Catalog catalog;
  for (const Shadow& shadow : shadows) {
    EXPECT_TRUE(
        catalog.AddRelation(shadow.name, shadow.truth, SmallBlocks(type))
            .ok());
  }
  return catalog;
}

EngineOptions WithThreads(std::size_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

class DifferentialMutationTest
    : public ::testing::TestWithParam<IndexType> {};

TEST_P(DifferentialMutationTest, IncrementalEqualsRebuiltEqualsNaive) {
  const IndexType type = GetParam();
  std::vector<Shadow> shadows = {
      {"A", MakeUniform(260, 71, 0)},
      {"B", MakeCity(260, 72, 100000)},
      {"C", MakeClustered(4, 60, 73, 200000)},
  };
  QueryEngine engine(CatalogFrom(shadows, type),
                     WithThreads(2));

  std::mt19937_64 rng(20260729);
  std::uniform_real_distribution<double> coord(-80.0, 1080.0);
  PointId next_id = 500000;
  std::size_t mutations = 0;

  constexpr std::size_t kBatches = 45;
  constexpr std::size_t kOpsPerBatch = 25;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    Shadow& shadow = shadows[batch % shadows.size()];
    std::vector<MutationOp> ops;
    for (std::size_t i = 0; i < kOpsPerBatch; ++i) {
      const bool insert = shadow.truth.empty() || rng() % 100 < 58;
      if (insert) {
        double x = coord(rng);
        double y = coord(rng) * 0.8;
        if (rng() % 8 == 0 && !shadow.truth.empty()) {
          // Duplicate an existing coordinate: the split/merge paths
          // must survive ties.
          const Point& twin = shadow.truth[rng() % shadow.truth.size()];
          x = twin.x;
          y = twin.y;
        }
        const Point p{next_id++, x, y};
        shadow.truth.push_back(p);
        ops.push_back(MutationOp{.kind = MutationOp::Kind::kInsert,
                                 .point = p});
      } else {
        const std::size_t victim = rng() % shadow.truth.size();
        ops.push_back(MutationOp::Erase(shadow.truth[victim].id));
        shadow.truth.erase(shadow.truth.begin() +
                           static_cast<std::ptrdiff_t>(victim));
      }
    }
    mutations += ops.size();
    const EngineResult applied =
        engine.ExecuteDml(DmlRequest::MutateOps(shadow.name, ops));
    ASSERT_TRUE(applied.ok()) << applied.status.ToString();
    ASSERT_EQ(applied.rows_affected, ops.size());

    // The SoA columns must mirror the AoS points bit-for-bit after
    // every batch: the distance kernels read only the columns, so any
    // divergence silently corrupts results.
    ASSERT_TRUE(
        (*engine.catalog().Get(shadow.name))->index->ColumnsConsistent())
        << shadow.name << " columns diverged after " << mutations
        << " mutations (batch " << batch << ")";

    if ((batch + 1) % 5 != 0 && batch + 1 != kBatches) continue;

    // Checkpoint: incremental vs rebuilt vs naive, all six shapes.
    QueryEngine rebuilt(CatalogFrom(shadows, type),
                        WithThreads(1));
    EngineOptions naive_options;
    naive_options.num_threads = 1;
    naive_options.planner.force_naive = true;
    QueryEngine naive(CatalogFrom(shadows, type), naive_options);

    const auto specs = SixShapes(static_cast<double>(batch % 7) * 40.0,
                                 static_cast<double>(batch % 5) * 30.0,
                                 2 + batch % 6);
    for (const QuerySpec& spec : specs) {
      const EngineResult incremental = engine.Run(spec);
      const EngineResult fresh = rebuilt.Run(spec);
      const EngineResult conceptual = naive.Run(spec);
      ASSERT_TRUE(incremental.ok()) << incremental.status.ToString();
      ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
      ASSERT_TRUE(conceptual.ok()) << conceptual.status.ToString();
      EXPECT_EQ(incremental.output, fresh.output)
          << "incremental != rebuilt after " << mutations
          << " mutations (batch " << batch << ")";
      EXPECT_EQ(incremental.output, conceptual.output)
          << "incremental != naive after " << mutations
          << " mutations (batch " << batch << ")";
    }
  }
  ASSERT_GE(mutations, 1000u);

  // Final checkpoint against the index-free brute-force references.
  const PointSet& a = shadows[0].truth;
  const PointSet& b = shadows[1].truth;
  const PointSet& c = shadows[2].truth;
  const auto specs = SixShapes(40.0, 30.0, 3);
  const std::vector<QueryOutput> expected = {
      QueryOutput(RefTwoSelects(
          a, std::get<TwoSelectsSpec>(specs[0]).s1.focal, 3,
          std::get<TwoSelectsSpec>(specs[0]).s2.focal, 8)),
      QueryOutput(RefSelectInnerJoin(
          b, a, std::get<SelectInnerJoinSpec>(specs[1]).join_k,
          std::get<SelectInnerJoinSpec>(specs[1]).select.focal, 6)),
      QueryOutput(RefSelectOuterJoin(
          a, c, 2, std::get<SelectOuterJoinSpec>(specs[2]).select.focal,
          9)),
      QueryOutput(RefUnchained(a, b, c,
                               std::get<UnchainedJoinsSpec>(specs[3]).k_ab,
                               2)),
      QueryOutput(RefChained(c, a, b, 2,
                             std::get<ChainedJoinsSpec>(specs[4]).k_bc)),
      QueryOutput(RefRangeInnerJoin(
          c, b, std::get<RangeInnerJoinSpec>(specs[5]).join_k,
          std::get<RangeInnerJoinSpec>(specs[5]).range)),
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const EngineResult run = engine.Run(specs[i]);
    ASSERT_TRUE(run.ok()) << run.status.ToString();
    EXPECT_EQ(run.output, expected[i])
        << "incremental engine diverged from the brute-force oracle on "
           "shape "
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, DifferentialMutationTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// --- Structure-level unit tests ---

class IndexMutationTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(IndexMutationTest, InsertEraseBulkLoadBasics) {
  const PointSet base = MakeUniform(120, 9, 0);
  IndexOptions options = SmallBlocks(GetParam());
  auto built = BuildIndex(base, options);
  ASSERT_TRUE(built.ok());
  SpatialIndex& index = **built;

  // Reject non-finite coordinates.
  EXPECT_FALSE(
      index.Insert({900, std::numeric_limits<double>::quiet_NaN(), 1})
          .ok());
  EXPECT_FALSE(
      index.Insert({901, 1, std::numeric_limits<double>::infinity()})
          .ok());

  // Insert far outside the built extent (forces the rebuild path).
  EXPECT_TRUE(index.Insert({1000, -5000.0, 9000.0}).ok());
  EXPECT_EQ(index.num_points(), base.size() + 1);
  EXPECT_NE(index.Locate({1000, -5000.0, 9000.0}), kInvalidBlockId);

  // Erase it again; erasing an unknown id is NotFound.
  EXPECT_TRUE(index.Erase(1000).ok());
  EXPECT_EQ(index.Erase(1000).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.num_points(), base.size());
  EXPECT_TRUE(index.ColumnsConsistent());

  // BulkLoad replaces the whole relation, keeping object identity.
  const SpatialIndex* before = &index;
  const PointSet fresh = MakeClustered(3, 30, 10, 5000);
  EXPECT_TRUE(index.BulkLoad(fresh).ok());
  EXPECT_EQ(&index, before);
  EXPECT_EQ(index.num_points(), fresh.size());
  EXPECT_TRUE(index.ColumnsConsistent());
  KnnSearcher searcher(index);
  const Point probe{-1, 500, 400};
  EXPECT_EQ(searcher.GetKnn(probe, 7), BruteForceKnn(fresh, probe, 7));
}

TEST_P(IndexMutationTest, DrainToEmptyAndRegrow) {
  PointSet truth = MakeUniform(60, 11, 0);
  auto built = BuildIndex(truth, SmallBlocks(GetParam()));
  ASSERT_TRUE(built.ok());
  SpatialIndex& index = **built;
  for (const Point& p : truth) {
    ASSERT_TRUE(index.Erase(p.id).ok());
  }
  EXPECT_EQ(index.num_points(), 0u);
  EXPECT_EQ(index.num_blocks(), 0u);
  // An empty index accepts inserts again.
  PointSet regrown;
  for (PointId id = 0; id < 40; ++id) {
    const Point p{id, static_cast<double>(id % 8) * 50.0,
                  static_cast<double>(id / 8) * 60.0};
    regrown.push_back(p);
    ASSERT_TRUE(index.Insert(p).ok());
  }
  KnnSearcher searcher(index);
  const Point probe{-1, 120, 90};
  EXPECT_EQ(searcher.GetKnn(probe, 9), BruteForceKnn(regrown, probe, 9));
  EXPECT_TRUE(index.ColumnsConsistent());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexMutationTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// --- Catalog semantics ---

TEST(CatalogMutationTest, AssignsIdsAndBumpsGenerationsPerRelation) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("a", MakeUniform(50, 1, 0)).ok());
  ASSERT_TRUE(catalog.AddRelation("b", MakeUniform(50, 2, 0)).ok());
  const std::uint64_t gen_b = (*catalog.Get("b"))->generation;

  auto outcome = catalog.Mutate(
      "a", {MutationOp::Insert(1, 2), MutationOp::Insert(3, 4)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows_affected, 2u);
  // Auto-assigned ids continue past the existing maximum (49).
  const SpatialIndex* index = (*catalog.Get("a"))->index.get();
  BlockId block;
  EXPECT_NE(index->Locate({50, 1, 2}), kInvalidBlockId);
  EXPECT_NE(index->Locate({51, 3, 4}), kInvalidBlockId);
  (void)block;

  // Deleting a missing id affects 0 rows and does NOT bump generation.
  const std::uint64_t gen_a = (*catalog.Get("a"))->generation;
  auto noop = catalog.Mutate("a", {MutationOp::Erase(987654)});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->rows_affected, 0u);
  EXPECT_EQ((*catalog.Get("a"))->generation, gen_a);

  // Mutating a never touches b's generation.
  EXPECT_EQ((*catalog.Get("b"))->generation, gen_b);

  // Unknown relations fail.
  EXPECT_FALSE(catalog.Mutate("ghost", {MutationOp::Insert(0, 0)}).ok());

  // LoadRelation replaces in place and can create.
  auto loaded = catalog.LoadRelation("a", MakeUniform(20, 3, 0));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows_affected, 20u);
  EXPECT_EQ((*catalog.Get("a"))->index->num_points(), 20u);
  auto created = catalog.LoadRelation("fresh", MakeUniform(10, 4, 0));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(catalog.Has("fresh"));
}

TEST(EngineDmlTest, FailedBatchKeepsItsAppliedPrefix) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("a", MakeUniform(300, 11, 0),
                               SmallBlocks(IndexType::kGrid))
                  .ok());
  EngineOptions options = WithThreads(1);
  options.cache_mb = 4;
  QueryEngine engine(std::move(catalog), options);
  const QuerySpec near_inserts = TwoSelectsSpec{
      .relation = "a",
      .s1 = {.focal = {.id = -1, .x = 30, .y = 60}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 40, .y = 80}, .k = 8}};
  ASSERT_TRUE(engine.Run(near_inserts).ok());  // Warm the cache.
  const Relation& before = **engine.catalog().Get("a");
  const std::size_t points_before = before.index->num_points();
  const std::uint64_t generation_before = before.generation;

  // The ninth op is invalid (non-finite coordinate): the batch fails,
  // and the eight rows before it stay applied, as Catalog::Mutate
  // applies them.
  std::vector<MutationOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(MutationOp::Insert(10.0 * i, 20.0 * i));
  }
  ops.push_back(
      MutationOp::Insert(std::numeric_limits<double>::quiet_NaN(), 1));
  const EngineResult result =
      engine.ExecuteDml(DmlRequest::MutateOps("a", ops));
  EXPECT_FALSE(result.ok());
  const Relation& after = **engine.catalog().Get("a");
  EXPECT_EQ(after.index->num_points(), points_before + 8);
  EXPECT_GT(after.generation, generation_before);

  // The applied prefix invalidated the warm entries: the query sees it.
  const EngineResult rerun = engine.Run(near_inserts);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun.output,
            QueryOutput(RefTwoSelects(after.index->points(), {-1, 30, 60},
                                      5, {-1, 40, 80}, 8)));
}

// --- Per-relation cache invalidation (the regression the satellite
// demands: updating A keeps B's neighborhoods hot) ---

TEST(PerRelationInvalidationTest, MutatingOneRelationKeepsOthersHot) {
  Catalog catalog;
  const IndexOptions grid = SmallBlocks(IndexType::kGrid);
  ASSERT_TRUE(catalog.AddRelation("a", MakeUniform(400, 21, 0), grid).ok());
  ASSERT_TRUE(
      catalog.AddRelation("b", MakeCity(400, 22, 100000), grid).ok());
  EngineOptions options;
  options.num_threads = 1;
  options.cache_mb = 16;
  QueryEngine engine(std::move(catalog), options);

  const QuerySpec on_a = TwoSelectsSpec{
      .relation = "a",
      .s1 = {.focal = {.id = -1, .x = 300, .y = 200}, .k = 6},
      .s2 = {.focal = {.id = -1, .x = 320, .y = 220}, .k = 9}};
  const QuerySpec on_b = TwoSelectsSpec{
      .relation = "b",
      .s1 = {.focal = {.id = -1, .x = 300, .y = 200}, .k = 6},
      .s2 = {.focal = {.id = -1, .x = 320, .y = 220}, .k = 9}};

  // Warm both relations, then confirm both are fully cache-served.
  ASSERT_TRUE(engine.Run(on_a).ok());
  ASSERT_TRUE(engine.Run(on_b).ok());
  EngineResult warm_a = engine.Run(on_a);
  EngineResult warm_b = engine.Run(on_b);
  EXPECT_GT(warm_a.stats.cache_hits, 0u);
  EXPECT_EQ(warm_a.stats.cache_misses, 0u);
  EXPECT_GT(warm_b.stats.cache_hits, 0u);
  EXPECT_EQ(warm_b.stats.cache_misses, 0u);

  // Mutate a: only a's entries may be dropped.
  const EngineResult mutated = engine.ExecuteDml(
      DmlRequest::MutateOps("a", {MutationOp::Insert(301, 201)}));
  ASSERT_TRUE(mutated.ok());

  EngineResult after_b = engine.Run(on_b);
  EXPECT_GT(after_b.stats.cache_hits, 0u)
      << "mutating relation a evicted relation b's cached neighborhoods";
  EXPECT_EQ(after_b.stats.cache_misses, 0u);

  EngineResult after_a = engine.Run(on_a);
  EXPECT_EQ(after_a.stats.cache_hits, 0u)
      << "relation a served stale neighborhoods after its mutation";
  EXPECT_GT(after_a.stats.cache_misses, 0u);
  EXPECT_EQ(after_a.output, QueryOutput(RefTwoSelects(
                                engine.catalog()
                                    .Get("a")
                                    .value()
                                    ->index->points(),
                                {-1, 300, 200}, 6, {-1, 320, 220}, 9)));

  const NeighborhoodCacheStats stats =
      engine.neighborhood_cache()->GetStats();
  EXPECT_GT(stats.invalidated, 0u);
}

TEST(PerRelationInvalidationTest, ZeroRowDeleteKeepsTheRelationsEntries) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("a", MakeUniform(400, 23, 0),
                               SmallBlocks(IndexType::kGrid))
                  .ok());
  EngineOptions options = WithThreads(1);
  options.cache_mb = 16;
  QueryEngine engine(std::move(catalog), options);
  const QuerySpec on_a = TwoSelectsSpec{
      .relation = "a",
      .s1 = {.focal = {.id = -1, .x = 300, .y = 200}, .k = 6},
      .s2 = {.focal = {.id = -1, .x = 320, .y = 220}, .k = 9}};
  ASSERT_TRUE(engine.Run(on_a).ok());  // Warm the cache.

  // A DELETE of an absent id changes no row, so it keeps the relation's
  // generation and its cached neighborhoods: the first such DELETE as
  // much as the second.
  for (const PointId absent : {PointId{999999}, PointId{999998}}) {
    const EngineResult deleted = engine.ExecuteDml(
        DmlRequest::MutateOps("a", {MutationOp::Erase(absent)}));
    ASSERT_TRUE(deleted.ok()) << deleted.status.ToString();
    EXPECT_EQ(deleted.rows_affected, 0u);
    const EngineResult rerun = engine.Run(on_a);
    EXPECT_GT(rerun.stats.cache_hits, 0u)
        << "the 0-row DELETE of id " << absent << " dropped a's entries";
    EXPECT_EQ(rerun.stats.cache_misses, 0u);
  }
  EXPECT_EQ(engine.neighborhood_cache()->GetStats().invalidated, 0u);
}

// --- Concurrent readers vs. writers: what TSan watches ---

TEST(ConcurrentMutationTest, ReadersRaceWritersSafely) {
  std::vector<Shadow> shadows = {
      {"A", MakeUniform(300, 31, 0)},
      {"B", MakeCity(300, 32, 100000)},
      {"C", MakeClustered(3, 70, 33, 200000)},
  };
  EngineOptions options;
  options.num_threads = 4;
  options.cache_mb = 8;
  QueryEngine engine(CatalogFrom(shadows, IndexType::kGrid), options);

  constexpr std::size_t kReaderRounds = 20;
  std::atomic<int> readers_active{2};
  std::atomic<std::size_t> queries_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &readers_active, &queries_ok, r] {
      for (std::size_t round = 0; round < kReaderRounds; ++round) {
        const auto specs =
            SixShapes(static_cast<double>((round + r) % 9) * 25.0,
                      static_cast<double>(round % 4) * 35.0,
                      2 + round % 5);
        for (const EngineResult& result : engine.RunBatch(specs)) {
          ASSERT_TRUE(result.ok()) << result.status.ToString();
          ++queries_ok;
        }
      }
      readers_active.fetch_sub(1);
    });
  }

  // Two writers on distinct relations (one moves A and C, the other B;
  // each owns its relations' shadows) keep writing for as long as the
  // readers are querying (and at least a few batches), so reads and
  // writes genuinely interleave.
  const std::vector<std::vector<std::size_t>> lanes = {{0, 2}, {1}};
  std::atomic<std::size_t> write_errors{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    writers.emplace_back([&, w] {
      std::mt19937_64 rng(777 + w);
      std::uniform_real_distribution<double> coord(0.0, 1000.0);
      PointId next_id = 900000 + static_cast<PointId>(w) * 100000;
      for (int batch = 0; batch < 30 || readers_active.load() > 0;
           ++batch) {
        Shadow& shadow = shadows[lanes[w][batch % lanes[w].size()]];
        std::vector<MutationOp> ops;
        for (int i = 0; i < 8; ++i) {
          if (shadow.truth.empty() || rng() % 100 < 60) {
            const Point p{next_id++, coord(rng), coord(rng) * 0.8};
            shadow.truth.push_back(p);
            ops.push_back(
                MutationOp{.kind = MutationOp::Kind::kInsert, .point = p});
          } else {
            const std::size_t victim = rng() % shadow.truth.size();
            ops.push_back(MutationOp::Erase(shadow.truth[victim].id));
            shadow.truth.erase(shadow.truth.begin() +
                               static_cast<std::ptrdiff_t>(victim));
          }
        }
        if (!engine.ExecuteDml(DmlRequest::MutateOps(shadow.name, ops))
                 .ok()) {
          ++write_errors;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(queries_ok.load(), 2 * kReaderRounds * 6);
  EXPECT_EQ(write_errors.load(), 0u);

  // Every cache entry is keyed by a live relation: once every current
  // relation's entries are dropped, nothing is left.
  NeighborhoodCache& cache = *engine.neighborhood_cache();
  for (const std::string& name : engine.catalog().Names()) {
    cache.InvalidateRelation((*engine.catalog().Get(name))->index.get());
  }
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);

  // After the dust settles, the engine agrees with a rebuild of the
  // shadow truth — the writers were the only mutators.
  QueryEngine rebuilt(CatalogFrom(shadows, IndexType::kGrid),
                      WithThreads(1));
  for (const QuerySpec& spec : SixShapes(0, 0, 3)) {
    const EngineResult live = engine.Run(spec);
    const EngineResult fresh = rebuilt.Run(spec);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(live.output, fresh.output);
  }
}

// --- One script: DML interleaved with queries ---

/// Runs `text` statement by statement the way both front ends do:
/// each query binds through BindQuery right before it runs, so it sees
/// every earlier mutation; DML binds shape-only and ExecuteDml applies
/// it.
std::vector<EngineResult> RunStatements(QueryEngine& engine,
                                        const std::string& text) {
  auto script = knnql::ParseScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  std::vector<EngineResult> results;
  if (!script.ok()) return results;
  for (const knnql::Statement& statement : *script) {
    if (const auto* query = std::get_if<knnql::Query>(&statement.body)) {
      auto spec = engine.BindQuery(*query);
      EXPECT_TRUE(spec.ok()) << spec.status().ToString();
      if (spec.ok()) results.push_back(engine.Run(*spec));
      continue;
    }
    auto dml = knnql::BindDml(statement.body, /*catalog=*/nullptr);
    EXPECT_TRUE(dml.ok()) << dml.status().ToString();
    if (dml.ok()) results.push_back(engine.ExecuteDml(*dml));
  }
  return results;
}

TEST(ScriptDmlTest, StatementsSeeEarlierMutations) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("spots", MakeUniform(200, 41, 0),
                               SmallBlocks(IndexType::kQuadtree))
                  .ok());
  QueryEngine engine(std::move(catalog), WithThreads(2));

  // Two sentinel points right on the focal; visible only after INSERT,
  // one gone again after DELETE (auto-assigned ids 200 and 201).
  const std::string script =
      "SELECT KNN(spots, 2, AT(1500, 1500)) INTERSECT "
      "KNN(spots, 2, AT(1500, 1500));\n"
      "INSERT INTO spots VALUES (1500, 1500), (1501, 1501);\n"
      "SELECT KNN(spots, 2, AT(1500, 1500)) INTERSECT "
      "KNN(spots, 2, AT(1500, 1500));\n"
      "DELETE FROM spots WHERE ID = 200;\n"
      "SELECT KNN(spots, 2, AT(1500, 1500)) INTERSECT "
      "KNN(spots, 2, AT(1500, 1500));\n";
  const std::vector<EngineResult> results = RunStatements(engine, script);
  ASSERT_EQ(results.size(), 5u);
  for (const EngineResult& result : results) {
    ASSERT_TRUE(result.ok()) << result.status.ToString();
  }
  EXPECT_FALSE(results[0].is_mutation);
  EXPECT_TRUE(results[1].is_mutation);
  EXPECT_EQ(results[1].rows_affected, 2u);
  EXPECT_EQ(results[3].rows_affected, 1u);

  const auto ids_of = [](const QueryOutput& output) {
    std::vector<PointId> ids;
    for (const Point& p : std::get<TwoSelectsResult>(output)) {
      ids.push_back(p.id);
    }
    return ids;
  };
  // Before the INSERT neither sentinel exists; after, both are the two
  // nearest; after the DELETE only 201 remains.
  const auto before = ids_of(results[0].output);
  EXPECT_EQ(std::count(before.begin(), before.end(), 200), 0);
  const auto inserted = ids_of(results[2].output);
  EXPECT_EQ(std::count(inserted.begin(), inserted.end(), 200), 1);
  EXPECT_EQ(std::count(inserted.begin(), inserted.end(), 201), 1);
  const auto deleted = ids_of(results[4].output);
  EXPECT_EQ(std::count(deleted.begin(), deleted.end(), 200), 0);
  EXPECT_EQ(std::count(deleted.begin(), deleted.end(), 201), 1);
}

}  // namespace
}  // namespace knnq
