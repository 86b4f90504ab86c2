// Tests for the two extensions the paper explicitly points at:
// footnote 1 (range selection on the join's inner relation) and the
// conclusion's "more than two kNN predicates" (arbitrary-length
// chains).

#include "gtest/gtest.h"
#include "src/core/chained_joins.h"
#include "src/core/multi_chained_joins.h"
#include "src/core/range_select_inner_join.h"
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
                  JoinLayout::kShards4},
        RangeCase{IndexType::kQuadtree, 2, BoundingBox(100, 100, 300, 250),
                  JoinLayout::kShards4},
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

// --- Arbitrary-length chains (the conclusion's outlook) ---

TEST(ChainedPathJoinTest, TwoRelationChainIsThePlainJoin) {
  const PointSet a = MakeUniform(40, 171, 0);
  const PointSet b = MakeUniform(300, 172, 10000);
  const auto a_index = MakeIndex(a);
  const auto b_index = MakeIndex(b);
  const ChainQuery query{.relations = {a_index.get(), b_index.get()},
                         .ks = {3}};
  const auto rows = ChainedPathJoin(query);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), a.size() * 3);
  for (const ChainRow& row : *rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_TRUE(Contains(BruteForceKnn(b, a[static_cast<std::size_t>(
                                              row[0])], 3),
                         row[1]));
  }
}

TEST(ChainedPathJoinTest, ThreeRelationChainMatchesChainedJoins) {
  const PointSet a = MakeUniform(60, 173, 0);
  const PointSet b = MakeCity(400, 174, 10000);
  const PointSet c = MakeUniform(300, 175, 20000);
  const auto a_index = MakeIndex(a);
  const auto b_index = MakeIndex(b);
  const auto c_index = MakeIndex(c);
  const ChainQuery query{
      .relations = {a_index.get(), b_index.get(), c_index.get()},
      .ks = {3, 4}};
  const auto rows = ChainedPathJoin(query);
  ASSERT_TRUE(rows.ok());

  const ChainedJoinsQuery pairwise{.a = a_index.get(),
                                   .b = b_index.get(),
                                   .c = c_index.get(),
                                   .k_ab = 3,
                                   .k_bc = 4};
  const auto triplets = ChainedJoinsNested(pairwise);
  ASSERT_TRUE(triplets.ok());
  ASSERT_EQ(rows->size(), triplets->size());
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i],
              (ChainRow{(*triplets)[i].a, (*triplets)[i].b,
                        (*triplets)[i].c}));
  }
}

TEST(ChainedPathJoinTest, LongChainNestedMatchesNaive) {
  // Five relations, four hops: the generalized QEP3 must equal the
  // independent pairwise specification.
  const PointSet r0 = MakeClustered(2, 20, 176, 0);
  const PointSet r1 = MakeUniform(150, 177, 10000);
  const PointSet r2 = MakeCity(200, 178, 20000);
  const PointSet r3 = MakeUniform(120, 179, 30000);
  const PointSet r4 = MakeUniform(100, 180, 40000);
  const auto i0 = MakeIndex(r0);
  const auto i1 = MakeIndex(r1);
  const auto i2 = MakeIndex(r2);
  const auto i3 = MakeIndex(r3);
  const auto i4 = MakeIndex(r4);
  const ChainQuery query{
      .relations = {i0.get(), i1.get(), i2.get(), i3.get(), i4.get()},
      .ks = {2, 3, 2, 2}};
  const auto nested = ChainedPathJoin(query, /*cache=*/true);
  const auto plain = ChainedPathJoin(query, /*cache=*/false);
  const auto naive = ChainedPathJoinNaive(query);
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*nested, *naive);
  EXPECT_EQ(*plain, *naive);
  EXPECT_EQ(nested->size(), r0.size() * 2 * 3 * 2 * 2);
}

TEST(ChainedPathJoinTest, CacheCollapsesSharedPrefixes) {
  const PointSet r0 = MakeClustered(1, 60, 181, 0);  // One tight cluster.
  const PointSet r1 = MakeUniform(400, 182, 10000);
  const PointSet r2 = MakeUniform(400, 183, 20000);
  const auto i0 = MakeIndex(r0);
  const auto i1 = MakeIndex(r1);
  const auto i2 = MakeIndex(r2);
  const ChainQuery query{.relations = {i0.get(), i1.get(), i2.get()},
                         .ks = {4, 4}};
  ChainStats cached_stats;
  ChainStats plain_stats;
  const auto cached = ChainedPathJoin(query, true, &cached_stats);
  const auto plain = ChainedPathJoin(query, false, &plain_stats);
  EXPECT_EQ(*cached, *plain);
  EXPECT_GT(cached_stats.cache_hits, 0u);
  ASSERT_EQ(cached_stats.probes_per_hop.size(), 2u);
  // Hop 1 probes distinct b's only when cached; one probe per produced
  // (r0, r1) pair otherwise.
  EXPECT_LT(cached_stats.probes_per_hop[1], plain_stats.probes_per_hop[1]);
  EXPECT_EQ(plain_stats.probes_per_hop[1], r0.size() * 4);
}

TEST(ChainedPathJoinTest, RejectsInvalidChains) {
  const auto index = MakeIndex(MakeUniform(10, 184));
  EXPECT_FALSE(
      ChainedPathJoin(ChainQuery{.relations = {index.get()}, .ks = {}})
          .ok());
  EXPECT_FALSE(ChainedPathJoin(ChainQuery{
                                   .relations = {index.get(), index.get()},
                                   .ks = {2, 3}})
                   .ok());
  EXPECT_FALSE(ChainedPathJoin(ChainQuery{
                                   .relations = {index.get(), index.get()},
                                   .ks = {0}})
                   .ok());
  EXPECT_FALSE(ChainedPathJoin(ChainQuery{
                                   .relations = {index.get(), nullptr},
                                   .ks = {2}})
                   .ok());
}

}  // namespace
}  // namespace knnq
