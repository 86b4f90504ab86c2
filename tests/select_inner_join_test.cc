// Section 3 tests: kNN-select on the inner relation of a kNN-join.
// The pivotal property: Counting and Block-Marking (both preprocessing
// modes) return exactly the conceptually correct result, which in turn
// equals an index-free brute-force evaluation - across index
// structures, data shapes, and k combinations.

#include <algorithm>
#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "src/core/range_select_inner_join.h"
#include "src/core/select_inner_join.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::JoinIndexes;
using testing::JoinLayout;
using testing::LayoutSuffix;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeJoinIndexes;
using testing::MakeUniform;
using testing::RefCountingPruned;
using testing::RefSelectInnerJoin;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct SijCase {
  IndexType type;
  std::size_t outer_n;
  std::size_t inner_n;
  std::size_t join_k;
  std::size_t select_k;
  JoinLayout layout = JoinLayout::kPlain;
};

std::string CaseName(const ::testing::TestParamInfo<SijCase>& info) {
  return std::string(ToString(info.param.type)) + "_o" +
         std::to_string(info.param.outer_n) + "_i" +
         std::to_string(info.param.inner_n) + "_kj" +
         std::to_string(info.param.join_k) + "_ks" +
         std::to_string(info.param.select_k) + LayoutSuffix(info.param.layout);
}

class SelectInnerJoinPropertyTest
    : public ::testing::TestWithParam<SijCase> {};

TEST_P(SelectInnerJoinPropertyTest, AllEvaluatorsAgreeWithBruteForce) {
  const SijCase& c = GetParam();
  const PointSet city = MakeCity(c.inner_n, /*seed=*/62, /*first_id=*/100000);
  const PointSet uniform = MakeUniform(c.outer_n, /*seed=*/61);
  const JoinIndexes indexes = MakeJoinIndexes(uniform, city, c.type, c.layout);
  const PointSet& outer = indexes.outer->points();
  const PointSet& inner = indexes.inner->points();
  const Point focal{.id = -1, .x = 700, .y = 300};

  const SelectInnerJoinQuery query{
      .outer = indexes.outer,
      .inner = indexes.inner.get(),
      .join_k = c.join_k,
      .focal = focal,
      .select_k = c.select_k,
  };
  const JoinResult expected =
      RefSelectInnerJoin(outer, inner, c.join_k, focal, c.select_k);

  const auto naive = SelectInnerJoinNaive(query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*naive, expected) << "naive deviates from brute force";

  SelectInnerJoinStats stats;
  const auto counting = SelectInnerJoinCounting(query, &stats);
  ASSERT_TRUE(counting.ok());
  EXPECT_EQ(*counting, expected) << "Counting deviates";
  // A prune of one point too many can leave the rows intact (when that
  // point joins nothing), so the count is checked on its own.
  const Neighborhood nbr_f = BruteForceKnn(inner, focal, c.select_k);
  const auto threshold = [&nbr_f](const Point& e1) {
    double least = kInf;
    for (const Neighbor& n : nbr_f) {
      least = std::min(least, SquaredDistance(e1, n.point));
    }
    return std::sqrt(least);
  };
  const std::size_t want_pruned =
      RefCountingPruned(*indexes.outer, *indexes.inner, c.join_k, threshold);
  EXPECT_EQ(stats.pruned_points, want_pruned)
      << "Counting prunes other points than Procedure 1";
  EXPECT_EQ(stats.pruned_points + stats.neighborhoods_computed,
            outer.size());

  const auto contour =
      SelectInnerJoinBlockMarking(query, PreprocessMode::kContour);
  ASSERT_TRUE(contour.ok());
  EXPECT_EQ(*contour, expected) << "Block-Marking (contour) deviates";

  const auto exhaustive =
      SelectInnerJoinBlockMarking(query, PreprocessMode::kExhaustive);
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ(*exhaustive, expected) << "Block-Marking (exhaustive) deviates";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectInnerJoinPropertyTest,
    ::testing::Values(
        SijCase{IndexType::kGrid, 150, 800, 2, 2},
        SijCase{IndexType::kGrid, 150, 800, 2, 10},
        SijCase{IndexType::kGrid, 150, 800, 10, 2},
        SijCase{IndexType::kGrid, 400, 1500, 5, 5},
        SijCase{IndexType::kGrid, 400, 1500, 1, 25},
        SijCase{IndexType::kQuadtree, 150, 800, 2, 10},
        SijCase{IndexType::kQuadtree, 400, 1500, 5, 5},
        SijCase{IndexType::kRTree, 150, 800, 2, 10},
        SijCase{IndexType::kRTree, 400, 1500, 5, 5},
        SijCase{IndexType::kGrid, 800, 800, 3, 10, JoinLayout::kSelfJoin},
        SijCase{IndexType::kQuadtree, 800, 800, 3, 10, JoinLayout::kSelfJoin},
        SijCase{IndexType::kRTree, 800, 800, 3, 10, JoinLayout::kSelfJoin},
        SijCase{IndexType::kGrid, 400, 1500, 2, 5,
                JoinLayout::kZeroWidthOuter},
        SijCase{IndexType::kRTree, 400, 1500, 2, 5,
                JoinLayout::kZeroWidthOuter},
        SijCase{IndexType::kQuadtree, 400, 1500, 2, 5,
                JoinLayout::kMutatedInner},
        SijCase{IndexType::kRTree, 400, 1500, 2, 5,
                JoinLayout::kMutatedInner}),
    CaseName);

TEST(SelectInnerJoinTest, ClusteredOuterAgreesAcrossEvaluators) {
  const PointSet outer = MakeClustered(4, 150, /*seed=*/63, /*first_id=*/0);
  const PointSet inner = MakeCity(1200, /*seed=*/64, /*first_id=*/100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 3,
      .focal = Point{.id = -1, .x = 200, .y = 600},
      .select_k = 8,
  };
  const JoinResult expected = RefSelectInnerJoin(
      outer, inner, query.join_k, query.focal, query.select_k);
  EXPECT_EQ(*SelectInnerJoinNaive(query), expected);
  EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected);
}

TEST(SelectInnerJoinTest, CountingPrunesDistantOuterPoints) {
  // Outer points far from the focal point have dense inner
  // neighborhoods between them and the focal neighborhood, so most must
  // be pruned without a neighborhood computation.
  const PointSet outer = MakeUniform(500, 65, /*first_id=*/0);
  const PointSet inner = MakeUniform(5000, 66, /*first_id=*/100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = Point{.id = -1, .x = 500, .y = 400},
      .select_k = 2,
  };
  SelectInnerJoinStats stats;
  ASSERT_TRUE(SelectInnerJoinCounting(query, &stats).ok());
  EXPECT_GT(stats.pruned_points, outer.size() / 2)
      << "Counting should prune most outer points";
  EXPECT_EQ(stats.pruned_points + stats.neighborhoods_computed,
            outer.size());
}

TEST(SelectInnerJoinTest, BlockMarkingSkipsMostBlocks) {
  const PointSet outer = MakeUniform(3000, 67, /*first_id=*/0);
  const PointSet inner = MakeUniform(5000, 68, /*first_id=*/100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = Point{.id = -1, .x = 500, .y = 400},
      .select_k = 2,
  };
  SelectInnerJoinStats stats;
  ASSERT_TRUE(SelectInnerJoinBlockMarking(query, PreprocessMode::kContour,
                                          &stats)
                  .ok());
  EXPECT_LT(stats.contributing_blocks, outer_index->num_blocks() / 4)
      << "most outer blocks should be Non-Contributing";
  EXPECT_LT(stats.neighborhoods_computed, outer.size() / 4)
      << "points in Non-Contributing blocks must not be joined";
  // The contour rule must stop before probing every block.
  EXPECT_LT(stats.blocks_preprocessed, outer_index->num_blocks());
}

// DESIGN.md note 3's layout, scaled down: on the grid at block
// capacities 4 and 16 the paper's contour stop returns none of its 9
// rows. The exhaustive classification every plan runs must return all
// of them, for both inner filters, on every structure.
TEST(SelectInnerJoinTest, ExhaustiveBlockMarkingKeepsTheFarCarsRows) {
  const testing::FarCarsLayout layout =
      testing::MakeFarCarsLayout(2997, /*seed=*/73);
  for (const IndexType type : testing::AllIndexTypes()) {
    for (const std::size_t capacity : {4u, 16u, 64u}) {
      const std::string ctx =
          std::string(ToString(type)) + " cap " + std::to_string(capacity);
      const auto cars = MakeIndex(layout.cars, type, capacity);
      const auto shops = MakeIndex(layout.shops, type, capacity);
      const SelectInnerJoinQuery select{
          .outer = cars.get(),
          .inner = shops.get(),
          .join_k = 3,
          .focal = Point{.id = -1, .x = 500, .y = 400},
          .select_k = 3};
      const auto naive = SelectInnerJoinNaive(select);
      ASSERT_TRUE(naive.ok()) << ctx;
      EXPECT_EQ(naive->size(), 9u) << ctx;
      EXPECT_EQ(
          *SelectInnerJoinBlockMarking(select, PreprocessMode::kExhaustive),
          *naive)
          << ctx;

      const RangeSelectInnerJoinQuery range{
          .outer = cars.get(),
          .inner = shops.get(),
          .join_k = 3,
          .range = BoundingBox(499, 399, 502, 402)};
      const auto range_naive = RangeSelectInnerJoinNaive(range);
      ASSERT_TRUE(range_naive.ok()) << ctx;
      EXPECT_EQ(range_naive->size(), 9u) << ctx;
      EXPECT_EQ(*RangeSelectInnerJoinBlockMarking(range,
                                                  PreprocessMode::kExhaustive),
                *range_naive)
          << ctx;
    }
  }
}

TEST(SelectInnerJoinTest, ContourProbesFewerBlocksThanExhaustive) {
  const PointSet outer = MakeUniform(3000, 69);
  const PointSet inner = MakeUniform(3000, 70, /*first_id=*/100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = Point{.id = -1, .x = 500, .y = 400},
      .select_k = 4,
  };
  SelectInnerJoinStats contour_stats;
  SelectInnerJoinStats exhaustive_stats;
  const auto contour = SelectInnerJoinBlockMarking(
      query, PreprocessMode::kContour, &contour_stats);
  const auto exhaustive = SelectInnerJoinBlockMarking(
      query, PreprocessMode::kExhaustive, &exhaustive_stats);
  EXPECT_EQ(*contour, *exhaustive);
  EXPECT_LT(contour_stats.blocks_preprocessed,
            exhaustive_stats.blocks_preprocessed);
  EXPECT_EQ(exhaustive_stats.blocks_preprocessed,
            outer_index->num_blocks());
}

TEST(SelectInnerJoinTest, SelectWiderThanInnerRelationKeepsJoinSemantics) {
  // select_k > |E2|: the select returns all of E2, so the query
  // degenerates to the plain kNN-join.
  const PointSet outer = MakeUniform(80, 71);
  const PointSet inner = MakeUniform(40, 72, /*first_id=*/100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 3,
      .focal = Point{.id = -1, .x = 0, .y = 0},
      .select_k = 1000,
  };
  const JoinResult expected =
      RefSelectInnerJoin(outer, inner, 3, query.focal, 1000);
  EXPECT_EQ(expected.size(), outer.size() * 3);
  EXPECT_EQ(*SelectInnerJoinNaive(query), expected);
  EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected);
}

TEST(SelectInnerJoinTest, EmptyInnerYieldsEmptyResult) {
  const PointSet outer = MakeUniform(20, 73);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(PointSet{});
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = Point{.id = -1, .x = 0, .y = 0},
      .select_k = 2,
  };
  EXPECT_TRUE(SelectInnerJoinNaive(query)->empty());
  EXPECT_TRUE(SelectInnerJoinCounting(query)->empty());
  EXPECT_TRUE(SelectInnerJoinBlockMarking(query)->empty());
}

TEST(SelectInnerJoinTest, EmptyOuterYieldsEmptyResult) {
  const auto outer_index = MakeIndex(PointSet{});
  const auto inner_index = MakeIndex(MakeUniform(100, 74));
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = Point{.id = -1, .x = 0, .y = 0},
      .select_k = 2,
  };
  EXPECT_TRUE(SelectInnerJoinNaive(query)->empty());
  EXPECT_TRUE(SelectInnerJoinCounting(query)->empty());
  EXPECT_TRUE(SelectInnerJoinBlockMarking(query)->empty());
}

TEST(SelectInnerJoinTest, RejectsInvalidQueries) {
  const auto index = MakeIndex(MakeUniform(10, 75));
  SelectInnerJoinQuery query{
      .outer = index.get(),
      .inner = index.get(),
      .join_k = 0,
      .focal = Point{.id = -1, .x = 0, .y = 0},
      .select_k = 2,
  };
  EXPECT_FALSE(SelectInnerJoinNaive(query).ok());
  EXPECT_FALSE(SelectInnerJoinCounting(query).ok());
  EXPECT_FALSE(SelectInnerJoinBlockMarking(query).ok());
  query.join_k = 2;
  query.select_k = 0;
  EXPECT_FALSE(SelectInnerJoinNaive(query).ok());
  query.select_k = 2;
  query.outer = nullptr;
  EXPECT_FALSE(SelectInnerJoinCounting(query).ok());
}

TEST(SelectInnerJoinTest, PaperFigure1Scenario) {
  // The running example of Section 1: mechanic shops (outer), hotels
  // (inner), shopping center (focal), k = 2 for both predicates. A
  // hand-constructed layout mirroring Figure 1's geometry: hotel h1 is
  // near mechanics m1/m2, h2 near m3, h3 far from everything; the
  // shopping center's 2-NN are h1 and h2.
  const PointSet mechanics = {
      {.id = 1, .x = 10, .y = 50},   // m1: nearest hotels h1, h2.
      {.id = 2, .x = 20, .y = 50},   // m2: nearest hotels h1, h2.
      {.id = 3, .x = 60, .y = 50},   // m3: nearest hotels h2, h3.
      {.id = 4, .x = 95, .y = 50},   // m4: nearest hotels h3, h4.
  };
  const PointSet hotels = {
      {.id = 101, .x = 15, .y = 55},   // h1.
      {.id = 102, .x = 50, .y = 55},   // h2.
      {.id = 103, .x = 80, .y = 55},   // h3.
      {.id = 104, .x = 100, .y = 55},  // h4.
  };
  const Point shopping_center{.id = -1, .x = 30, .y = 60};
  // 2-NN of the shopping center: h1 (distance ~15.8) and h2 (~20.6).

  const auto outer_index = MakeIndex(mechanics, IndexType::kGrid, 2);
  const auto inner_index = MakeIndex(hotels, IndexType::kGrid, 2);
  const SelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .focal = shopping_center,
      .select_k = 2,
  };

  // Correct answer: every (m, h) pair where h is a 2-NN of m AND one of
  // {h1, h2}: m1 -> h1, h2; m2 -> h1, h2; m3 -> h2 (its other neighbor
  // h3 fails the select); m4 -> nothing (neighbors h3, h4 both fail).
  JoinResult expected = {
      JoinPair{mechanics[0], hotels[0]}, JoinPair{mechanics[0], hotels[1]},
      JoinPair{mechanics[1], hotels[0]}, JoinPair{mechanics[1], hotels[1]},
      JoinPair{mechanics[2], hotels[1]},
  };
  Canonicalize(expected);
  EXPECT_EQ(*SelectInnerJoinNaive(query), expected);
  EXPECT_EQ(*SelectInnerJoinCounting(query), expected);
  EXPECT_EQ(*SelectInnerJoinBlockMarking(query), expected);

  // The INVALID plan of Figure 2 - pushing the select below the join's
  // inner side - returns a different (wrong) result: every mechanic
  // paired with both h1 and h2.
  const Neighborhood sigma = BruteForceKnn(hotels, shopping_center, 2);
  PointSet pushed_inner;
  for (const Neighbor& n : sigma) pushed_inner.push_back(n.point);
  JoinResult wrong;
  for (const Point& m : mechanics) {
    for (const Neighbor& n : BruteForceKnn(pushed_inner, m, 2)) {
      wrong.push_back(JoinPair{m, n.point});
    }
  }
  Canonicalize(wrong);
  EXPECT_EQ(wrong.size(), 8u);
  EXPECT_NE(wrong, expected)
      << "pushing the select below the inner side must change results "
         "(that is exactly why it is invalid)";
}

}  // namespace
}  // namespace knnq
