// Tests for the base operations (kNN-select, kNN-join) and the shared
// result containers.

#include "gtest/gtest.h"
#include "src/core/knn_join.h"
#include "src/core/knn_select.h"
#include "src/core/result_types.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeIndex;
using testing::MakeUniform;

TEST(KnnSelectTest, MatchesBruteForce) {
  const PointSet points = MakeUniform(800, 31);
  const auto index = MakeIndex(points);
  const Point focal{.id = -1, .x = 321, .y = 123};
  const auto result = KnnSelect(*index, focal, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(IdsOf(*result), IdsOf(BruteForceKnn(points, focal, 12)));
}

TEST(KnnSelectTest, RejectsZeroK) {
  const auto index = MakeIndex(MakeUniform(10, 1));
  const auto result = KnnSelect(*index, Point{.id = -1, .x = 0, .y = 0}, 0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(KnnJoinTest, MatchesBruteForcePairs) {
  const PointSet outer = MakeUniform(60, 41, /*first_id=*/0);
  const PointSet inner = MakeUniform(200, 42, /*first_id=*/1000);
  const auto inner_index = MakeIndex(inner);
  const auto result = KnnJoin(outer, *inner_index, 3);
  ASSERT_TRUE(result.ok());

  JoinResult expected;
  for (const Point& e1 : outer) {
    for (const Neighbor& n : BruteForceKnn(inner, e1, 3)) {
      expected.push_back(JoinPair{e1, n.point});
    }
  }
  Canonicalize(expected);
  EXPECT_EQ(*result, expected);
}

TEST(KnnJoinTest, EveryOuterPointProducesKPairs) {
  const PointSet outer = MakeUniform(50, 43);
  const PointSet inner = MakeUniform(500, 44, /*first_id=*/1000);
  const auto inner_index = MakeIndex(inner);
  const auto result = KnnJoin(outer, *inner_index, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), outer.size() * 4);
}

TEST(KnnJoinTest, InnerSmallerThanKProducesAllPairs) {
  const PointSet outer = MakeUniform(10, 45);
  const PointSet inner = MakeUniform(3, 46, /*first_id=*/1000);
  const auto inner_index = MakeIndex(inner);
  const auto result = KnnJoin(outer, *inner_index, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), outer.size() * inner.size());
}

TEST(KnnJoinTest, EmptyOuterYieldsNoPairs) {
  const auto inner_index = MakeIndex(MakeUniform(100, 47));
  const auto result = KnnJoin(PointSet{}, *inner_index, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(KnnJoinTest, RejectsZeroK) {
  const auto inner_index = MakeIndex(MakeUniform(100, 48));
  EXPECT_FALSE(KnnJoin(MakeUniform(5, 49), *inner_index, 0).ok());
}

TEST(ResultTypesTest, CanonicalizeSortsPairs) {
  JoinResult pairs = {
      JoinPair{{.id = 2, .x = 0, .y = 0}, {.id = 1, .x = 0, .y = 0}},
      JoinPair{{.id = 1, .x = 0, .y = 0}, {.id = 9, .x = 0, .y = 0}},
      JoinPair{{.id = 1, .x = 0, .y = 0}, {.id = 2, .x = 0, .y = 0}},
  };
  Canonicalize(pairs);
  EXPECT_EQ(pairs[0].outer.id, 1);
  EXPECT_EQ(pairs[0].inner.id, 2);
  EXPECT_EQ(pairs[1].inner.id, 9);
  EXPECT_EQ(pairs[2].outer.id, 2);
}

TEST(ResultTypesTest, IntersectNeighborhoodsById) {
  const Neighborhood p = {{{.id = 1, .x = 0, .y = 0}, 1.0},
                          {{.id = 2, .x = 0, .y = 0}, 2.0},
                          {{.id = 3, .x = 0, .y = 0}, 3.0}};
  const Neighborhood q = {{{.id = 3, .x = 0, .y = 0}, 0.5},
                          {{.id = 4, .x = 0, .y = 0}, 0.7},
                          {{.id = 1, .x = 0, .y = 0}, 0.9}};
  const std::vector<Point> both = IntersectNeighborhoods(p, q);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].id, 1);
  EXPECT_EQ(both[1].id, 3);
}

TEST(ResultTypesTest, SummarizeTruncates) {
  JoinResult pairs;
  for (int i = 0; i < 20; ++i) {
    pairs.push_back(JoinPair{{.id = i, .x = 0, .y = 0},
                             {.id = i + 100, .x = 0, .y = 0}});
  }
  const std::string s = Summarize(pairs, 3);
  EXPECT_NE(s.find("20 pairs"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace knnq
