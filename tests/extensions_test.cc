// Tests for footnote 1's extension of Section 3: a range selection on
// the join's inner relation.

#include "gtest/gtest.h"
#include "src/core/range_select_inner_join.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::JoinIndexes;
using testing::JoinLayout;
using testing::LayoutSuffix;
using testing::MakeCity;
using testing::MakeIndex;
using testing::MakeJoinIndexes;
using testing::MakeUniform;
using testing::RefCountingPruned;

// --- Range selection on the inner relation (footnote 1) ---

JoinResult RefRangeSelectInnerJoin(const PointSet& outer,
                                   const PointSet& inner,
                                   std::size_t join_k,
                                   const BoundingBox& range) {
  JoinResult pairs;
  for (const Point& e1 : outer) {
    for (const Neighbor& n : BruteForceKnn(inner, e1, join_k)) {
      if (range.Contains(n.point)) pairs.push_back(JoinPair{e1, n.point});
    }
  }
  Canonicalize(pairs);
  return pairs;
}

struct RangeCase {
  IndexType type;
  std::size_t join_k;
  BoundingBox range;
  JoinLayout layout = JoinLayout::kPlain;
};

std::string RangeCaseName(const ::testing::TestParamInfo<RangeCase>& info) {
  return std::string(ToString(info.param.type)) + "_k" +
         std::to_string(info.param.join_k) + "_case" +
         std::to_string(info.param.range.Area() > 100000 ? 1 : 0) +
         std::to_string(info.index) + LayoutSuffix(info.param.layout);
}

class RangeSelectInnerJoinPropertyTest
    : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeSelectInnerJoinPropertyTest, AllEvaluatorsMatchBruteForce) {
  const RangeCase& c = GetParam();
  const PointSet city = MakeCity(1200, /*seed=*/162, /*first_id=*/100000);
  const PointSet uniform = MakeUniform(300, /*seed=*/161);
  const JoinIndexes indexes = MakeJoinIndexes(uniform, city, c.type, c.layout);
  const PointSet& outer = indexes.outer->points();
  const PointSet& inner = indexes.inner->points();
  const RangeSelectInnerJoinQuery query{
      .outer = indexes.outer,
      .inner = indexes.inner.get(),
      .join_k = c.join_k,
      .range = c.range,
  };
  const JoinResult expected =
      RefRangeSelectInnerJoin(outer, inner, c.join_k, c.range);
  EXPECT_EQ(*RangeSelectInnerJoinNaive(query), expected);
  SelectInnerJoinStats stats;
  EXPECT_EQ(*RangeSelectInnerJoinCounting(query, &stats), expected);
  // The rows alone miss a prune of one point too many when that point
  // joins nothing.
  const auto threshold = [&c](const Point& e1) { return c.range.MinDist(e1); };
  const std::size_t want_pruned =
      RefCountingPruned(*indexes.outer, *indexes.inner, c.join_k, threshold);
  EXPECT_EQ(stats.pruned_points, want_pruned)
      << "Counting prunes other points than Procedure 1";
  EXPECT_EQ(stats.pruned_points + stats.neighborhoods_computed,
            outer.size());
  EXPECT_EQ(
      *RangeSelectInnerJoinBlockMarking(query, PreprocessMode::kContour),
      expected);
  EXPECT_EQ(
      *RangeSelectInnerJoinBlockMarking(query, PreprocessMode::kExhaustive),
      expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeSelectInnerJoinPropertyTest,
    ::testing::Values(
        RangeCase{IndexType::kGrid, 2, BoundingBox(100, 100, 300, 250)},
        RangeCase{IndexType::kGrid, 8, BoundingBox(100, 100, 300, 250)},
        RangeCase{IndexType::kGrid, 3, BoundingBox(0, 0, 1000, 800)},
        RangeCase{IndexType::kGrid, 3, BoundingBox(450, 350, 452, 352)},
        RangeCase{IndexType::kQuadtree, 4,
                  BoundingBox(600, 200, 900, 500)},
        RangeCase{IndexType::kRTree, 4, BoundingBox(600, 200, 900, 500)},
        RangeCase{IndexType::kGrid, 3, BoundingBox(600, 200, 900, 500),
                  JoinLayout::kSelfJoin},
        RangeCase{IndexType::kQuadtree, 3, BoundingBox(600, 200, 900, 500),
                  JoinLayout::kSelfJoin},
        RangeCase{IndexType::kRTree, 3, BoundingBox(600, 200, 900, 500),
                  JoinLayout::kSelfJoin},
        RangeCase{IndexType::kGrid, 2, BoundingBox(600, 200, 900, 500),
                  JoinLayout::kZeroWidthOuter},
        RangeCase{IndexType::kRTree, 2, BoundingBox(100, 100, 300, 250),
                  JoinLayout::kZeroWidthOuter},
        RangeCase{IndexType::kGrid, 2, BoundingBox(600, 200, 900, 500),
                  JoinLayout::kMutatedInner},
        RangeCase{IndexType::kRTree, 2, BoundingBox(100, 100, 300, 250),
                  JoinLayout::kMutatedInner}),
    RangeCaseName);

TEST(RangeSelectInnerJoinTest, CountingPrunesOutsideTheRectangle) {
  const PointSet outer = MakeUniform(1000, 163, 0);
  const PointSet inner = MakeUniform(8000, 164, 100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const RangeSelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 2,
      .range = BoundingBox(480, 380, 520, 420),  // Small central window.
  };
  SelectInnerJoinStats stats;
  ASSERT_TRUE(RangeSelectInnerJoinCounting(query, &stats).ok());
  EXPECT_GT(stats.pruned_points, outer.size() * 3 / 4);
}

TEST(RangeSelectInnerJoinTest, WholeSpaceRectangleDegeneratesToPlainJoin) {
  const PointSet outer = MakeUniform(50, 165, 0);
  const PointSet inner = MakeUniform(400, 166, 100000);
  const auto outer_index = MakeIndex(outer);
  const auto inner_index = MakeIndex(inner);
  const RangeSelectInnerJoinQuery query{
      .outer = outer_index.get(),
      .inner = inner_index.get(),
      .join_k = 4,
      .range = BoundingBox(-10, -10, 1010, 810),
  };
  const auto result = RangeSelectInnerJoinBlockMarking(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), outer.size() * 4);
}

TEST(RangeSelectInnerJoinTest, RejectsInvalidQueries) {
  const auto index = MakeIndex(MakeUniform(10, 167));
  RangeSelectInnerJoinQuery query{
      .outer = index.get(),
      .inner = index.get(),
      .join_k = 0,
      .range = BoundingBox(0, 0, 1, 1),
  };
  EXPECT_FALSE(RangeSelectInnerJoinNaive(query).ok());
  query.join_k = 2;
  query.range = BoundingBox();  // Empty.
  EXPECT_FALSE(RangeSelectInnerJoinCounting(query).ok());
  query.range = BoundingBox(0, 0, 1, 1);
  query.inner = nullptr;
  EXPECT_FALSE(RangeSelectInnerJoinBlockMarking(query).ok());
}

}  // namespace
}  // namespace knnq
