// Tests for the locality algorithm [15] and the locality-based getkNN:
// the primitive every query evaluator builds on. The key property: the
// locality-based neighborhood equals the brute-force neighborhood for
// every index structure, dataset shape, k, and query position.

#include <algorithm>
#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "src/index/knn_searcher.h"
#include "src/index/locality.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::AllIndexTypes;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

struct SearchCase {
  IndexType type;
  std::size_t n;
  std::size_t k;
};

std::string CaseName(const ::testing::TestParamInfo<SearchCase>& info) {
  return std::string(ToString(info.param.type)) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k);
}

class KnnSearchPropertyTest : public ::testing::TestWithParam<SearchCase> {};

TEST_P(KnnSearchPropertyTest, MatchesBruteForceOnUniformData) {
  const PointSet points = MakeUniform(GetParam().n, /*seed=*/101);
  const auto index = MakeIndex(points, GetParam().type);
  KnnSearcher searcher(*index);
  Rng rng(55);
  for (int i = 0; i < 60; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(-100, 1100),
                  .y = rng.Uniform(-100, 900)};
    const Neighborhood expected = BruteForceKnn(points, q, GetParam().k);
    const Neighborhood actual = searcher.GetKnn(q, GetParam().k);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(expected[j].point.id, actual[j].point.id)
          << "query " << q.ToString() << " rank " << j;
      EXPECT_DOUBLE_EQ(expected[j].dist, actual[j].dist);
    }
  }
}

TEST_P(KnnSearchPropertyTest, MatchesBruteForceOnCityData) {
  const PointSet points = MakeCity(GetParam().n, /*seed=*/202);
  const auto index = MakeIndex(points, GetParam().type);
  KnnSearcher searcher(*index);
  Rng rng(66);
  for (int i = 0; i < 40; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    EXPECT_EQ(IdsOf(BruteForceKnn(points, q, GetParam().k)),
              IdsOf(searcher.GetKnn(q, GetParam().k)));
  }
}

TEST_P(KnnSearchPropertyTest, MatchesBruteForceOnClusteredData) {
  const PointSet points =
      MakeClustered(/*num_clusters=*/6, GetParam().n / 6, /*seed=*/303);
  const auto index = MakeIndex(points, GetParam().type);
  KnnSearcher searcher(*index);
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    EXPECT_EQ(IdsOf(BruteForceKnn(points, q, GetParam().k)),
              IdsOf(searcher.GetKnn(q, GetParam().k)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnSearchPropertyTest,
    ::testing::Values(SearchCase{IndexType::kGrid, 600, 1},
                      SearchCase{IndexType::kGrid, 600, 7},
                      SearchCase{IndexType::kGrid, 600, 50},
                      SearchCase{IndexType::kGrid, 3000, 10},
                      SearchCase{IndexType::kQuadtree, 600, 1},
                      SearchCase{IndexType::kQuadtree, 600, 7},
                      SearchCase{IndexType::kQuadtree, 3000, 50},
                      SearchCase{IndexType::kRTree, 600, 1},
                      SearchCase{IndexType::kRTree, 600, 7},
                      SearchCase{IndexType::kRTree, 3000, 50}),
    CaseName);

TEST(KnnSearcherTest, KLargerThanRelationReturnsEverything) {
  const PointSet points = MakeUniform(25, 1);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    const Neighborhood nbr =
        searcher.GetKnn(Point{.id = -1, .x = 0, .y = 0}, 100);
    EXPECT_EQ(nbr.size(), 25u) << ToString(type);
  }
}

TEST(KnnSearcherTest, KZeroReturnsEmpty) {
  const PointSet points = MakeUniform(25, 1);
  const auto index = MakeIndex(points);
  KnnSearcher searcher(*index);
  EXPECT_TRUE(searcher.GetKnn(Point{.id = -1, .x = 0, .y = 0}, 0).empty());
}

TEST(KnnSearcherTest, EmptyIndexReturnsEmpty) {
  const auto index = MakeIndex(PointSet{});
  KnnSearcher searcher(*index);
  EXPECT_TRUE(searcher.GetKnn(Point{.id = -1, .x = 0, .y = 0}, 5).empty());
}

TEST(KnnSearcherTest, TieBreaksById) {
  // Four points at identical distance from the origin query: ranking
  // must fall back to ids, lowest first.
  PointSet points = {
      {.id = 40, .x = 1, .y = 0},  {.id = 10, .x = -1, .y = 0},
      {.id = 30, .x = 0, .y = 1},  {.id = 20, .x = 0, .y = -1},
      {.id = 50, .x = 5, .y = 5},
  };
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type, /*block_capacity=*/2);
    KnnSearcher searcher(*index);
    const Neighborhood nbr =
        searcher.GetKnn(Point{.id = -1, .x = 0, .y = 0}, 3);
    ASSERT_EQ(nbr.size(), 3u);
    EXPECT_EQ(nbr[0].point.id, 10) << ToString(type);
    EXPECT_EQ(nbr[1].point.id, 20) << ToString(type);
    EXPECT_EQ(nbr[2].point.id, 30) << ToString(type);
  }
}

TEST(KnnSearcherTest, DuplicatePointsAllRanked) {
  PointSet points(10, Point{.id = 0, .x = 3, .y = 3});
  AssignSequentialIds(points);
  points.push_back(Point{.id = 100, .x = 50, .y = 50});
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type, /*block_capacity=*/4);
    KnnSearcher searcher(*index);
    const Neighborhood nbr =
        searcher.GetKnn(Point{.id = -1, .x = 3, .y = 3}, 5);
    ASSERT_EQ(nbr.size(), 5u) << ToString(type);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(nbr[i].point.id, static_cast<PointId>(i));
      EXPECT_EQ(nbr[i].dist, 0.0);
    }
  }
}

TEST(KnnSearcherTest, FarQueriesMatchBruteForce) {
  // KNNQL accepts any finite focal point. These lie past what a grid
  // cell coordinate can hold as size_t; at 1e300 every distance is
  // +inf and ranking falls back to ids. One searcher serves every
  // query, so its held scans are restarted across near and far aims.
  const PointSet points = MakeCity(800, 5);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    for (const Point& q : {Point{.id = -1, .x = 1e25, .y = 0},
                           Point{.id = -1, .x = -1e25, .y = 400},
                           Point{.id = -1, .x = 300, .y = 1e22},
                           Point{.id = -1, .x = 500, .y = 400},
                           Point{.id = -1, .x = 1e300, .y = -1e300},
                           Point{.id = -1, .x = -1e300, .y = 0}}) {
      for (const std::size_t k : {1, 7}) {
        EXPECT_EQ(searcher.GetKnn(q, k), BruteForceKnn(points, q, k))
            << ToString(type) << " k=" << k << " at " << q.ToString();
      }
    }
  }
}

TEST(KnnSearcherTest, QueryOnDataPointIncludesItself) {
  const PointSet points = MakeUniform(100, 7);
  const auto index = MakeIndex(points);
  KnnSearcher searcher(*index);
  const Neighborhood nbr = searcher.GetKnn(points[42], 1);
  ASSERT_EQ(nbr.size(), 1u);
  EXPECT_EQ(nbr[0].point.id, points[42].id);
  EXPECT_EQ(nbr[0].dist, 0.0);
}

// --- Locality-specific properties ---

TEST(LocalityTest, LocalityContainsTheTrueNeighborhoodBlocks) {
  const PointSet points = MakeUniform(1500, 11);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    Rng rng(12);
    for (int i = 0; i < 25; ++i) {
      const Point q{.id = -1,
                    .x = rng.Uniform(0, 1000),
                    .y = rng.Uniform(0, 800)};
      const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(20));
      const Locality locality = ComputeLocality(*index, q, k);
      // Definition 2: the k nearest points all live in locality blocks.
      std::vector<bool> in_locality(index->num_blocks(), false);
      for (const BlockId id : locality.blocks) in_locality[id] = true;
      for (const Neighbor& n : BruteForceKnn(points, q, k)) {
        const BlockId home = index->Locate(n.point);
        ASSERT_NE(home, kInvalidBlockId);
        EXPECT_TRUE(in_locality[home])
            << ToString(type) << ": neighbor " << n.point.ToString()
            << " outside the locality";
      }
    }
  }
}

TEST(LocalityTest, LocalityBlocksAreWithinTheBound) {
  const PointSet points = MakeUniform(1500, 13);
  const auto index = MakeIndex(points);
  const Point q{.id = -1, .x = 500, .y = 400};
  const Locality locality = ComputeLocality(*index, q, 10);
  for (const BlockId id : locality.blocks) {
    EXPECT_LE(index->block(id).box.MinDist(q),
              locality.max_dist_bound + 1e-9);
  }
}

TEST(LocalityTest, RestrictedLocalityIsASubset) {
  const PointSet points = MakeUniform(1500, 17);
  const auto index = MakeIndex(points);
  const Point q{.id = -1, .x = 500, .y = 400};
  const Locality full = ComputeLocality(*index, q, 40);
  const Locality restricted = ComputeLocality(*index, q, 40,
                                              /*restrict_to_threshold=*/30.0);
  EXPECT_LT(restricted.blocks.size(), full.blocks.size());
  std::vector<bool> in_full(index->num_blocks(), false);
  for (const BlockId id : full.blocks) in_full[id] = true;
  for (const BlockId id : restricted.blocks) {
    EXPECT_TRUE(in_full[id]);
    EXPECT_LE(index->block(id).box.MinDist(q), 30.0);
  }
}

TEST(LocalityTest, KBeyondRelationTakesAllBlocks) {
  const PointSet points = MakeUniform(300, 19);
  const auto index = MakeIndex(points);
  const Locality locality =
      ComputeLocality(*index, Point{.id = -1, .x = 0, .y = 0}, 10000);
  EXPECT_EQ(locality.blocks.size(), index->num_blocks());
  EXPECT_TRUE(std::isinf(locality.max_dist_bound));
}

TEST(LocalityTest, StatsCountWork) {
  const PointSet points = MakeUniform(1500, 23);
  const auto index = MakeIndex(points);
  SearchStats stats;
  ComputeLocality(*index, Point{.id = -1, .x = 500, .y = 400}, 10,
                  std::numeric_limits<double>::infinity(), &stats);
  EXPECT_EQ(stats.localities_computed, 1u);
  EXPECT_GT(stats.blocks_scanned, 0u);
}

TEST(RestrictedSearchTest, ThresholdBelowFirstBlockMindistIsEmpty) {
  // A query far outside the data's extent with a threshold smaller
  // than every block's MINDIST: the clipped locality is empty, so the
  // neighborhood is too - no block may be scanned "just in case".
  const PointSet points = MakeUniform(800, 31);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    const Point far_away{.id = -1, .x = 5000, .y = 5000};
    // The frame ends at (1000, 800); every block is > 4000 away.
    const Neighborhood nbr =
        searcher.GetKnnRestricted(far_away, 10, /*threshold=*/100.0);
    EXPECT_TRUE(nbr.empty()) << ToString(type);
  }
}

TEST(RestrictedSearchTest, ZeroThresholdOnDataPointKeepsOnlyIt) {
  // threshold = 0 still admits blocks at MINDIST 0 and points at
  // distance exactly 0: probing a data point returns that point (and
  // any exact duplicates), nothing else.
  const PointSet points = MakeUniform(500, 37);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    const Neighborhood nbr =
        searcher.GetKnnRestricted(points[123], 10, /*threshold=*/0.0);
    ASSERT_EQ(nbr.size(), 1u) << ToString(type);
    EXPECT_EQ(nbr[0].point.id, points[123].id);
    EXPECT_EQ(nbr[0].dist, 0.0);
  }
}

TEST(RestrictedSearchTest, ThresholdCoveringRelationEqualsFullSearch) {
  // A threshold beyond the farthest point clips nothing: the restricted
  // search must be byte-identical to the unrestricted one, for every
  // index structure and for k both below and above the relation size.
  const PointSet points = MakeCity(700, 41);
  const Point q{.id = -1, .x = 480, .y = 390};
  constexpr double kWholeWorld = 1e7;
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    for (const std::size_t k : {std::size_t{1}, std::size_t{25},
                                std::size_t{2000}}) {
      const Neighborhood full = searcher.GetKnn(q, k);
      const Neighborhood restricted =
          searcher.GetKnnRestricted(q, k, kWholeWorld);
      ASSERT_EQ(full.size(), restricted.size())
          << ToString(type) << " k=" << k;
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(full[i], restricted[i]) << ToString(type) << " k=" << k
                                          << " rank " << i;
      }
    }
  }
}

TEST(RestrictedSearchTest, ExactWithinThresholdRegion) {
  // GetKnnRestricted must rank all points within the threshold exactly;
  // beyond the threshold it may differ (DESIGN.md note 5).
  const PointSet points = MakeUniform(2000, 29);
  const auto index = MakeIndex(points);
  KnnSearcher searcher(*index);
  const Point q{.id = -1, .x = 500, .y = 400};
  const std::size_t k = 60;
  const double threshold = 50.0;
  const Neighborhood full = searcher.GetKnn(q, k);
  const Neighborhood restricted = searcher.GetKnnRestricted(q, k, threshold);
  // Members of the true neighborhood within the threshold must appear
  // in the restricted neighborhood, and vice versa.
  for (const Neighbor& n : full) {
    if (n.dist <= threshold) {
      EXPECT_TRUE(Contains(restricted, n.point.id)) << n.point.ToString();
    }
  }
  for (const Neighbor& n : restricted) {
    if (n.dist <= threshold) {
      EXPECT_TRUE(Contains(full, n.point.id)) << n.point.ToString();
    }
  }
}

}  // namespace
}  // namespace knnq
