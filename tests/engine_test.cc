// Engine-layer tests: QueryEngine batch-vs-serial equivalence over
// every query shape, per-query error isolation, the cache knob, the
// default plans' rows on the layout that broke the contour stop, and
// the guarantee that every src/core evaluator reports non-zero
// ExecStats.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chained_joins.h"
#include "src/core/knn_join.h"
#include "src/core/knn_select.h"
#include "src/core/range_select_inner_join.h"
#include "src/core/select_inner_join.h"
#include "src/core/select_outer_join.h"
#include "src/core/two_selects.h"
#include "src/core/unchained_joins.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

Catalog MakeCatalog() {
  Catalog catalog;
  IndexOptions options;
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

EngineOptions WithThreads(std::size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  return options;
}

/// `rounds` cycles through all six QuerySpec shapes with varying
/// parameters: 6 * rounds specs total.
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

void ExpectBatchMatchesSerial(const QueryEngine& engine,
                              const std::vector<QuerySpec>& specs) {
  std::vector<EngineResult> serial;
  serial.reserve(specs.size());
  for (const QuerySpec& spec : specs) serial.push_back(engine.Run(spec));

  const std::vector<EngineResult> batch = engine.RunBatch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << "query " << i << ": "
                               << batch[i].status.ToString();
    ASSERT_TRUE(serial[i].ok());
    EXPECT_EQ(batch[i].algorithm, serial[i].algorithm) << "query " << i;
    EXPECT_TRUE(batch[i].output == serial[i].output)
        << "batch result differs from serial for query " << i;
    EXPECT_FALSE(batch[i].stats.empty())
        << "query " << i << " reported no execution counters";
  }
}

TEST(QueryEngineTest, BatchMatchesSerialOverAllShapes) {
  // 43 rounds * 6 shapes = 258 queries >= 256, on a 4-thread pool.
  QueryEngine engine(MakeCatalog(), WithThreads(4));
  EXPECT_EQ(engine.num_threads(), 4u);
  ExpectBatchMatchesSerial(engine, MixedSpecs(43));
}

TEST(QueryEngineTest, BatchMatchesSerialUnderForceNaive) {
  EngineOptions options;
  options.num_threads = 4;
  options.planner.force_naive = true;
  QueryEngine engine(MakeCatalog(), options);
  ExpectBatchMatchesSerial(engine, MixedSpecs(8));
}

TEST(QueryEngineTest, PerQueryErrorsAreIsolated) {
  QueryEngine engine(MakeCatalog(), WithThreads(2));
  std::vector<QuerySpec> specs = MixedSpecs(1);
  const std::size_t good = specs.size();
  // Slot `good`: unknown relation. Slot `good + 1`: zero k.
  specs.push_back(TwoSelectsSpec{
      .relation = "does-not-exist",
      .s1 = {.focal = {}, .k = 2},
      .s2 = {.focal = {}, .k = 2},
  });
  specs.push_back(SelectInnerJoinSpec{
      .outer = "uniform",
      .inner = "city",
      .join_k = 0,
      .select = {.focal = {}, .k = 1},
  });

  const std::vector<EngineResult> results = engine.RunBatch(specs);
  ASSERT_EQ(results.size(), good + 2);
  for (std::size_t i = 0; i < good; ++i) {
    EXPECT_TRUE(results[i].ok())
        << "good query " << i << " failed: " << results[i].status.ToString();
  }
  EXPECT_EQ(results[good].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(results[good + 1].status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, ExplainSurfacesExecStats) {
  QueryEngine engine(MakeCatalog(), WithThreads(1));
  const EngineResult result = engine.Run(TwoSelectsSpec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 5},
      .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = 9},
  });
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.explain.find("Stats:"), std::string::npos)
      << result.explain;
  EXPECT_NE(result.explain.find("blocks="), std::string::npos)
      << result.explain;
  EXPECT_GT(result.stats.wall_seconds, 0.0);
}

TEST(QueryEngineTest, CacheKnobSizesTheEngineCache) {
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

TEST(QueryEngineTest, CacheKnobSaturatesInsteadOfWrapping) {
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

// DESIGN.md note 3's layout at full size: 70,003 cars reach the
// planner's size cutoff, so the default plan for both inner filters is
// Block-Marking, and it must return the 9 rows the naive plans return.
TEST(QueryEngineTest, DefaultBlockMarkingPlanKeepsEveryRow) {
  const testing::FarCarsLayout layout =
      testing::MakeFarCarsLayout(70000, /*seed=*/73);
  const auto make_catalog = [&layout] {
    Catalog catalog;
    EXPECT_TRUE(catalog.AddRelation("cars", layout.cars).ok());
    EXPECT_TRUE(catalog.AddRelation("shops", layout.shops).ok());
    return catalog;
  };
  const QueryEngine engine(make_catalog(), WithThreads(1));
  EngineOptions naive_options = WithThreads(1);
  naive_options.planner.force_naive = true;
  const QueryEngine naive(make_catalog(), naive_options);

  const std::vector<std::pair<QuerySpec, Algorithm>> cases = {
      {SelectInnerJoinSpec{
           .outer = "cars",
           .inner = "shops",
           .join_k = 3,
           .select = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 3}},
       Algorithm::kSelectInnerJoinBlockMarking},
      {RangeInnerJoinSpec{.outer = "cars",
                          .inner = "shops",
                          .join_k = 3,
                          .range = BoundingBox(499, 399, 502, 402)},
       Algorithm::kRangeInnerJoinBlockMarking},
  };
  for (const auto& [spec, algorithm] : cases) {
    const EngineResult planned = engine.Run(spec);
    const EngineResult expected = naive.Run(spec);
    ASSERT_TRUE(planned.ok()) << planned.status.ToString();
    ASSERT_TRUE(expected.ok()) << expected.status.ToString();
    EXPECT_EQ(planned.algorithm, algorithm) << planned.explain;
    EXPECT_EQ(std::get<JoinResult>(expected.output).size(), 9u);
    EXPECT_EQ(planned.output, expected.output) << planned.explain;
  }
}

// --- Every src/core evaluator reports non-zero ExecStats. ---

class EvaluatorStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    outer_points_ = MakeUniform(500, 61, 0);
    inner_points_ = MakeCity(500, 62, 100000);
    third_points_ = MakeClustered(2, 100, 63, 200000);
    outer_ = MakeIndex(outer_points_);
    inner_ = MakeIndex(inner_points_);
    third_ = MakeIndex(third_points_);
  }

  PointSet outer_points_, inner_points_, third_points_;
  std::unique_ptr<SpatialIndex> outer_, inner_, third_;
};

TEST_F(EvaluatorStatsTest, TwoSelectsReportStats) {
  const TwoSelectsQuery query{.relation = outer_.get(),
                              .f1 = {.id = -1, .x = 300, .y = 300},
                              .k1 = 4,
                              .f2 = {.id = -1, .x = 320, .y = 310},
                              .k2 = 9};
  ExecStats naive, optimized;
  ASSERT_TRUE(TwoSelectsNaive(query, nullptr, &naive).ok());
  ASSERT_TRUE(TwoSelectsOptimized(query, nullptr, &optimized).ok());
  EXPECT_FALSE(naive.empty());
  EXPECT_FALSE(optimized.empty());
  EXPECT_EQ(naive.neighborhoods_computed, 2u);
}

TEST_F(EvaluatorStatsTest, SelectInnerJoinFamilyReportsStats) {
  const SelectInnerJoinQuery query{.outer = outer_.get(),
                                   .inner = inner_.get(),
                                   .join_k = 3,
                                   .focal = {.id = -1, .x = 400, .y = 300},
                                   .select_k = 5};
  ExecStats naive, counting, marking;
  ASSERT_TRUE(SelectInnerJoinNaive(query, nullptr, &naive).ok());
  ASSERT_TRUE(SelectInnerJoinCounting(query, nullptr, &counting).ok());
  ASSERT_TRUE(SelectInnerJoinBlockMarking(query, PreprocessMode::kExhaustive,
                                          nullptr, ProbePoint::kCenter,
                                          &marking)
                  .ok());
  EXPECT_FALSE(naive.empty());
  EXPECT_FALSE(counting.empty());
  EXPECT_FALSE(marking.empty());
  EXPECT_GT(counting.candidates_pruned, 0u)
      << "a tight focal neighborhood must prune most outer points";
  EXPECT_GT(marking.candidates_pruned, 0u);
}

TEST_F(EvaluatorStatsTest, RangeInnerJoinFamilyReportsStats) {
  const RangeSelectInnerJoinQuery query{
      .outer = outer_.get(),
      .inner = inner_.get(),
      .join_k = 3,
      .range = BoundingBox(300, 250, 450, 380)};
  ExecStats naive, counting, marking;
  ASSERT_TRUE(RangeSelectInnerJoinNaive(query, nullptr, &naive).ok());
  ASSERT_TRUE(RangeSelectInnerJoinCounting(query, nullptr, &counting).ok());
  ASSERT_TRUE(RangeSelectInnerJoinBlockMarking(
                  query, PreprocessMode::kExhaustive, nullptr, &marking)
                  .ok());
  EXPECT_FALSE(naive.empty());
  EXPECT_FALSE(counting.empty());
  EXPECT_FALSE(marking.empty());
}

TEST_F(EvaluatorStatsTest, SelectOuterJoinReportsStats) {
  const SelectOuterJoinQuery query{.outer = outer_.get(),
                                   .inner = inner_.get(),
                                   .join_k = 2,
                                   .focal = {.id = -1, .x = 500, .y = 400},
                                   .select_k = 10};
  ExecStats pushed, late;
  ASSERT_TRUE(SelectOuterJoinPushed(query, &pushed).ok());
  ASSERT_TRUE(SelectOuterJoinLate(query, &late).ok());
  EXPECT_FALSE(pushed.empty());
  EXPECT_FALSE(late.empty());
  EXPECT_GT(pushed.candidates_pruned, 0u)
      << "the pushdown skips all non-selected outer points";
  EXPECT_LT(pushed.neighborhoods_computed, late.neighborhoods_computed);
}

TEST_F(EvaluatorStatsTest, UnchainedJoinsReportStats) {
  const UnchainedJoinsQuery query{.a = outer_.get(),
                                  .b = inner_.get(),
                                  .c = third_.get(),
                                  .k_ab = 2,
                                  .k_cb = 2};
  ExecStats naive, marking;
  ASSERT_TRUE(UnchainedJoinsNaive(query, &naive).ok());
  ASSERT_TRUE(UnchainedJoinsBlockMarking(query, nullptr, &marking).ok());
  EXPECT_FALSE(naive.empty());
  EXPECT_FALSE(marking.empty());
}

TEST_F(EvaluatorStatsTest, ChainedJoinsFamilyReportsStats) {
  const ChainedJoinsQuery query{.a = third_.get(),
                                .b = inner_.get(),
                                .c = outer_.get(),
                                .k_ab = 2,
                                .k_bc = 2};
  ExecStats right_deep, intersection, nested;
  ASSERT_TRUE(ChainedJoinsRightDeep(query, nullptr, &right_deep).ok());
  ASSERT_TRUE(
      ChainedJoinsJoinIntersection(query, nullptr, &intersection).ok());
  ASSERT_TRUE(ChainedJoinsNested(query, true, nullptr, &nested).ok());
  EXPECT_FALSE(right_deep.empty());
  EXPECT_FALSE(intersection.empty());
  EXPECT_FALSE(nested.empty());
  EXPECT_LT(nested.neighborhoods_computed,
            right_deep.neighborhoods_computed)
      << "the nested join must not touch unreachable b's";
}

TEST_F(EvaluatorStatsTest, BaseOperationsReportStats) {
  ExecStats select_stats, join_stats;
  ASSERT_TRUE(KnnSelect(*outer_, {.id = -1, .x = 100, .y = 100}, 5,
                        &select_stats)
                  .ok());
  ASSERT_TRUE(KnnJoin(third_points_, *inner_, 2, &join_stats).ok());
  EXPECT_FALSE(select_stats.empty());
  EXPECT_FALSE(join_stats.empty());
}

}  // namespace
}  // namespace knnq
