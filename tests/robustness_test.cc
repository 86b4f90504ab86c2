// Robustness suite: randomized cross-evaluator fuzzing over random
// configurations, adversarial data layouts (density gaps, collinear
// points, heavy duplicates), and the contour-vs-exhaustive
// classification behaviour documented in DESIGN.md note 3.

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/chained_joins.h"
#include "src/core/select_inner_join.h"
#include "src/core/two_selects.h"
#include "src/core/unchained_joins.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeIndex;
using testing::MakeUniform;
using testing::RefSelectInnerJoin;
using testing::RefTwoSelects;

// --- Randomized fuzzing: many small random configurations ---

TEST(FuzzTest, SelectInnerJoinAgreesAcrossRandomConfigs) {
  Rng rng(20240610);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t outer_n = 20 + rng.NextIndex(250);
    const std::size_t inner_n = 20 + rng.NextIndex(800);
    const std::size_t join_k = 1 + rng.NextIndex(12);
    const std::size_t select_k = 1 + rng.NextIndex(12);
    const auto type = static_cast<IndexType>(rng.NextIndex(3));
    const std::size_t capacity = 2 + rng.NextIndex(30);

    const PointSet outer = MakeUniform(outer_n, rng.Next(), 0);
    const PointSet inner = MakeUniform(inner_n, rng.Next(), 100000);
    const auto outer_index = MakeIndex(outer, type, capacity);
    const auto inner_index = MakeIndex(inner, type, capacity);
    const SelectInnerJoinQuery query{
        .outer = outer_index.get(),
        .inner = inner_index.get(),
        .join_k = join_k,
        .focal = Point{.id = -1,
                       .x = rng.Uniform(-200, 1200),
                       .y = rng.Uniform(-200, 1000)},
        .select_k = select_k,
    };
    const JoinResult expected =
        RefSelectInnerJoin(outer, inner, join_k, query.focal, select_k);
    const std::string ctx =
        "trial " + std::to_string(trial) + " type " +
        ToString(type) + " outer " + std::to_string(outer_n) + " inner " +
        std::to_string(inner_n) + " kj " + std::to_string(join_k) +
        " ks " + std::to_string(select_k);
    EXPECT_EQ(*SelectInnerJoinNaive(query), expected) << ctx;
    EXPECT_EQ(*SelectInnerJoinCounting(query), expected) << ctx;
    EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected) << ctx;
  }
}

TEST(FuzzTest, TwoSelectsAgreesAcrossRandomConfigs) {
  Rng rng(987654321);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 30 + rng.NextIndex(1500);
    const std::size_t k1 = 1 + rng.NextIndex(40);
    const std::size_t k2 = 1 + rng.NextIndex(400);
    const auto type = static_cast<IndexType>(rng.NextIndex(3));
    const PointSet points = MakeUniform(n, rng.Next(), 0);
    const auto index = MakeIndex(points, type, 2 + rng.NextIndex(30));
    const TwoSelectsQuery query{
        .relation = index.get(),
        .f1 = Point{.id = -1,
                    .x = rng.Uniform(0, 1000),
                    .y = rng.Uniform(0, 800)},
        .k1 = k1,
        .f2 = Point{.id = -1,
                    .x = rng.Uniform(0, 1000),
                    .y = rng.Uniform(0, 800)},
        .k2 = k2,
    };
    const TwoSelectsResult expected =
        RefTwoSelects(points, query.f1, k1, query.f2, k2);
    const auto optimized = TwoSelectsOptimized(query);
    ASSERT_TRUE(optimized.ok());
    EXPECT_EQ(*optimized, expected)
        << "trial " << trial << " n=" << n << " k1=" << k1 << " k2=" << k2
        << " type=" << ToString(type);
  }
}

// --- Adversarial layouts ---

/// A relation with a dense band, a hard density gap, and a sparse far
/// region - the layout where block pruning rules earn their keep.
PointSet GapLayout(std::uint64_t seed, PointId first_id) {
  Rng rng(seed);
  PointSet points;
  PointId id = first_id;
  // Dense band around the center.
  for (int i = 0; i < 1200; ++i) {
    points.push_back(Point{.id = id++,
                           .x = rng.Uniform(300, 700),
                           .y = rng.Uniform(250, 550)});
  }
  // Nothing between the band and the sparse corner pocket.
  for (int i = 0; i < 25; ++i) {
    points.push_back(Point{.id = id++,
                           .x = rng.Uniform(930, 1000),
                           .y = rng.Uniform(730, 800)});
  }
  return points;
}

TEST(AdversarialTest, GapLayoutAllEvaluatorsAgree) {
  const PointSet outer = GapLayout(31337, 0);
  const PointSet inner = GapLayout(73313, 100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  for (const std::size_t join_k : {1u, 3u, 9u}) {
    for (const std::size_t select_k : {2u, 20u}) {
      const SelectInnerJoinQuery query{
          .outer = outer_index.get(),
          .inner = inner_index.get(),
          .join_k = join_k,
          .focal = Point{.id = -1, .x = 500, .y = 400},
          .select_k = select_k,
      };
      const JoinResult expected =
          RefSelectInnerJoin(outer, inner, join_k, query.focal, select_k);
      EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
      EXPECT_EQ(
          *SelectInnerJoinBlockMarking(query, PreprocessMode::kContour),
          expected);
      EXPECT_EQ(
          *SelectInnerJoinBlockMarking(query, PreprocessMode::kExhaustive),
          expected);
    }
  }
}

TEST(AdversarialTest, ContourMayClassifyFewerBlocksButResultsMatch) {
  // The contour rule (the ablation; plans run the exhaustive pass) may
  // stop before probing blocks the exhaustive pass would classify
  // Contributing. On this gap layout the classifications differ while
  // the answers stay identical; DESIGN.md note 3 has a layout where the
  // contour loses rows.
  const PointSet outer = GapLayout(555, 0);
  const PointSet inner = GapLayout(777, 100000);
  const auto outer_index = MakeIndex(outer, IndexType::kGrid, 8);
  const auto inner_index = MakeIndex(inner, IndexType::kGrid, 8);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 3,
      .focal = Point{.id = -1, .x = 500, .y = 400},
      .select_k = 3,
  };
  SelectInnerJoinStats contour_stats;
  SelectInnerJoinStats exhaustive_stats;
  const auto contour = SelectInnerJoinBlockMarking(
      query, PreprocessMode::kContour, &contour_stats);
  const auto exhaustive = SelectInnerJoinBlockMarking(
      query, PreprocessMode::kExhaustive, &exhaustive_stats);
  ASSERT_TRUE(contour.ok());
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ(*contour, *exhaustive);
  EXPECT_LE(contour_stats.blocks_preprocessed,
            exhaustive_stats.blocks_preprocessed);
  // Ground truth for good measure.
  EXPECT_EQ(*contour, RefSelectInnerJoin(outer, inner, query.join_k,
                                         query.focal, query.select_k));
}

TEST(AdversarialTest, CollinearPointsWithExactTies) {
  // All points on one horizontal line at integer spacing: equidistant
  // pairs everywhere, exercising the (distance, id) tie-break through
  // every evaluator.
  PointSet line;
  for (int i = 0; i < 200; ++i) {
    line.push_back(Point{.id = i, .x = static_cast<double>(i), .y = 5.0});
  }
  const auto index = MakeIndex(line, IndexType::kGrid, 4);
  const TwoSelectsQuery query{
      .relation = index.get(),
      .f1 = Point{.id = -1, .x = 50.0, .y = 5.0},
      .k1 = 7,
      .f2 = Point{.id = -1, .x = 53.0, .y = 5.0},
      .k2 = 9,
  };
  EXPECT_EQ(*TwoSelectsOptimized(query),
            RefTwoSelects(line, query.f1, 7, query.f2, 9));

  const SelectInnerJoinQuery join_query{
      .outer = index.get(),
      .inner = index.get(),
      .join_k = 4,
      .focal = Point{.id = -1, .x = 100.0, .y = 5.0},
      .select_k = 6,
  };
  const JoinResult expected =
      RefSelectInnerJoin(line, line, 4, join_query.focal, 6);
  EXPECT_EQ(*SelectInnerJoinCounting(join_query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(join_query), expected);
}

TEST(AdversarialTest, HeavyDuplicatesAcrossAllQueryClasses) {
  // 30 distinct locations, ~17 duplicates each: distances tie
  // constantly and block counts dwarf distinct positions.
  Rng rng(2468);
  PointSet points;
  for (int loc = 0; loc < 30; ++loc) {
    const double x = rng.Uniform(0, 1000);
    const double y = rng.Uniform(0, 800);
    for (int d = 0; d < 17; ++d) {
      points.push_back(Point{.id = loc * 17 + d, .x = x, .y = y});
    }
  }
  const auto index = MakeIndex(points, IndexType::kGrid, 8);

  const TwoSelectsQuery selects{
      .relation = index.get(),
      .f1 = Point{.id = -1, .x = 500, .y = 400},
      .k1 = 20,
      .f2 = Point{.id = -1, .x = 510, .y = 410},
      .k2 = 60,
  };
  EXPECT_EQ(*TwoSelectsOptimized(selects),
            RefTwoSelects(points, selects.f1, 20, selects.f2, 60));

  const SelectInnerJoinQuery join_query{
      .outer = index.get(),
      .inner = index.get(),
      .join_k = 21,
      .focal = Point{.id = -1, .x = 400, .y = 300},
      .select_k = 34,
  };
  const JoinResult expected =
      RefSelectInnerJoin(points, points, 21, join_query.focal, 34);
  EXPECT_EQ(*SelectInnerJoinNaive(join_query), expected);
  EXPECT_EQ(*SelectInnerJoinCounting(join_query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(join_query), expected);
}

TEST(AdversarialTest, FocalFarOutsideTheDataBounds) {
  const PointSet outer = MakeUniform(400, 135, 0);
  const PointSet inner = MakeCity(900, 136, 100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 3,
      .focal = Point{.id = -1, .x = -9000, .y = 12000},
      .select_k = 5,
  };
  const JoinResult expected =
      RefSelectInnerJoin(outer, inner, 3, query.focal, 5);
  EXPECT_EQ(*SelectInnerJoinNaive(query), expected);
  EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected);
}

TEST(AdversarialTest, SingleBlockIndexDegeneratesGracefully) {
  // With one block, every pruning rule must fall through to plain
  // evaluation rather than misfire.
  const PointSet points = MakeUniform(40, 137, 0);
  // A quadtree whose capacity exceeds the relation never splits: the
  // root is the single block.
  const auto index = MakeIndex(points, IndexType::kQuadtree, 1000);
  ASSERT_EQ(index->num_blocks(), 1u);
  const SelectInnerJoinQuery query{
      .outer = index.get(),
      .inner = index.get(),
      .join_k = 5,
      .focal = Point{.id = -1, .x = 500, .y = 400},
      .select_k = 5,
  };
  const JoinResult expected =
      RefSelectInnerJoin(points, points, 5, query.focal, 5);
  EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected);
}

}  // namespace
}  // namespace knnq
