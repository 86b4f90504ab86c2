// Structure-independence tests: every SpatialIndex implementation must
// satisfy the same contract. Parameterized over {grid, quadtree, rtree}
// x {uniform, city, clustered} data.

#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "src/index/grid_index.h"
#include "src/index/index_factory.h"
#include "src/index/quadtree_index.h"
#include "src/index/rtree_index.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::ExpectSameScans;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

enum class Dataset { kUniform, kCity, kClustered };

struct IndexCase {
  IndexType type;
  Dataset dataset;
  std::size_t n;
};

std::string CaseName(const ::testing::TestParamInfo<IndexCase>& info) {
  std::string name = ToString(info.param.type);
  switch (info.param.dataset) {
    case Dataset::kUniform:
      name += "_uniform";
      break;
    case Dataset::kCity:
      name += "_city";
      break;
    case Dataset::kClustered:
      name += "_clustered";
      break;
  }
  name += "_" + std::to_string(info.param.n);
  return name;
}

PointSet MakeDataset(Dataset dataset, std::size_t n, std::uint64_t seed) {
  switch (dataset) {
    case Dataset::kUniform:
      return MakeUniform(n, seed);
    case Dataset::kCity:
      return MakeCity(n, seed);
    case Dataset::kClustered:
      return MakeClustered(/*num_clusters=*/5, n / 5, seed);
  }
  return {};
}

class IndexContractTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  void SetUp() override {
    points_ = MakeDataset(GetParam().dataset, GetParam().n, /*seed=*/77);
    index_ = MakeIndex(points_, GetParam().type);
  }

  PointSet points_;
  std::unique_ptr<SpatialIndex> index_;
};

TEST_P(IndexContractTest, IndexesEveryPointExactlyOnce) {
  ASSERT_EQ(index_->num_points(), points_.size());
  std::multiset<PointId> expected;
  for (const Point& p : points_) expected.insert(p.id);
  std::multiset<PointId> actual;
  for (const Point& p : index_->points()) actual.insert(p.id);
  EXPECT_EQ(expected, actual);
}

TEST_P(IndexContractTest, BlocksPartitionThePointArray) {
  std::vector<bool> covered(index_->num_points(), false);
  std::size_t total = 0;
  for (const Block& block : index_->blocks()) {
    EXPECT_GT(block.count(), 0u) << "empty blocks must not materialize";
    total += block.count();
    for (std::size_t i = block.begin; i < block.end; ++i) {
      EXPECT_FALSE(covered[i]) << "blocks overlap in the point array";
      covered[i] = true;
    }
  }
  EXPECT_EQ(total, index_->num_points());
}

TEST_P(IndexContractTest, BlockBoxesContainTheirPoints) {
  for (BlockId id = 0; id < index_->num_blocks(); ++id) {
    const Block& block = index_->block(id);
    for (const Point& p : index_->BlockPoints(id)) {
      EXPECT_TRUE(block.box.Contains(p))
          << "block " << id << " box " << block.box.ToString()
          << " misses point " << p.ToString();
    }
  }
}

TEST_P(IndexContractTest, LocateFindsEveryIndexedPoint) {
  for (const Point& p : index_->points()) {
    const BlockId id = index_->Locate(p);
    ASSERT_NE(id, kInvalidBlockId) << p.ToString();
    const auto span = index_->BlockPoints(id);
    const bool found =
        std::any_of(span.begin(), span.end(),
                    [&](const Point& q) { return q.id == p.id; });
    EXPECT_TRUE(found) << "Locate returned a block without the point";
  }
}

TEST_P(IndexContractTest, MinDistScanYieldsAllBlocksInOrder) {
  const Point query{.id = -1, .x = 137.0, .y = 212.0};
  auto scan = index_->NewScan(query, ScanOrder::kMinDist);
  std::set<BlockId> seen;
  double prev = -1.0;
  while (scan->HasNext()) {
    double key = 0.0;
    const BlockId id = scan->Next(&key);
    EXPECT_GE(key, prev) << "MINDIST keys must be non-decreasing";
    EXPECT_NEAR(key, index_->block(id).box.MinDist(query), 1e-9);
    EXPECT_TRUE(seen.insert(id).second) << "block yielded twice";
    prev = key;
  }
  EXPECT_EQ(seen.size(), index_->num_blocks());
}

TEST_P(IndexContractTest, MaxDistScanYieldsAllBlocksInOrder) {
  const Point query{.id = -1, .x = 900.0, .y = 50.0};
  auto scan = index_->NewScan(query, ScanOrder::kMaxDist);
  std::set<BlockId> seen;
  double prev = -1.0;
  while (scan->HasNext()) {
    double key = 0.0;
    const BlockId id = scan->Next(&key);
    EXPECT_GE(key, prev) << "MAXDIST keys must be non-decreasing";
    EXPECT_NEAR(key, index_->block(id).box.MaxDist(query), 1e-9);
    EXPECT_TRUE(seen.insert(id).second) << "block yielded twice";
    prev = key;
  }
  EXPECT_EQ(seen.size(), index_->num_blocks());
}

TEST_P(IndexContractTest, ScansHandleQueriesOutsideTheBounds) {
  // Queries far outside the data's bounding box must still order all
  // blocks correctly (Procedure 1 scans from arbitrary outer points).
  // The far ones put the grid's cell coordinate past what size_t holds
  // (and, at 1e300, every key at +inf).
  for (const Point query : {Point{.id = -1, .x = -5000, .y = -5000},
                            Point{.id = -1, .x = 99999, .y = 400},
                            Point{.id = -1, .x = 1e25, .y = 0},
                            Point{.id = -1, .x = -1e25, .y = 1e25},
                            Point{.id = -1, .x = 1e300, .y = -1e300}}) {
    for (const ScanOrder order : {ScanOrder::kMinDist, ScanOrder::kMaxDist}) {
      auto scan = index_->NewScan(query, order);
      std::size_t count = 0;
      double prev = -1.0;
      while (scan->HasNext()) {
        double key = 0.0;
        scan->Next(&key);
        EXPECT_GE(key, prev);
        prev = key;
        ++count;
      }
      EXPECT_EQ(count, index_->num_blocks());
    }
  }
}

TEST_P(IndexContractTest, RestartedScanYieldsWhatAFreshScanYields) {
  auto held = index_->NewScan(points_[0], ScanOrder::kMaxDist);
  ExpectSameScans(*index_, *held);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, IndexContractTest,
    ::testing::Values(
        IndexCase{IndexType::kGrid, Dataset::kUniform, 2000},
        IndexCase{IndexType::kGrid, Dataset::kCity, 2000},
        IndexCase{IndexType::kGrid, Dataset::kClustered, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kUniform, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kCity, 2000},
        IndexCase{IndexType::kQuadtree, Dataset::kClustered, 2000},
        IndexCase{IndexType::kRTree, Dataset::kUniform, 2000},
        IndexCase{IndexType::kRTree, Dataset::kCity, 2000},
        IndexCase{IndexType::kRTree, Dataset::kClustered, 2000},
        IndexCase{IndexType::kGrid, Dataset::kUniform, 37},
        IndexCase{IndexType::kQuadtree, Dataset::kUniform, 37},
        IndexCase{IndexType::kRTree, Dataset::kUniform, 37}),
    CaseName);

// --- Structure-specific behaviours ---

TEST(GridIndexTest, RejectsZeroTarget) {
  GridOptions options;
  options.target_points_per_cell = 0;
  auto result = GridIndex::Build(MakeUniform(10, 1), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GridIndexTest, EmptyRelationYieldsZeroBlocks) {
  auto grid = GridIndex::Build({}, GridOptions{});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ((*grid)->num_blocks(), 0u);
  EXPECT_EQ((*grid)->Locate(Point{.id = 0, .x = 1, .y = 1}),
            kInvalidBlockId);
  auto scan = (*grid)->NewScan(Point{.id = 0, .x = 0, .y = 0},
                               ScanOrder::kMinDist);
  EXPECT_FALSE(scan->HasNext());
}

TEST(GridIndexTest, SingleRepeatedPointCollapsesToOneCell) {
  PointSet points(50, Point{.id = 0, .x = 5, .y = 5});
  AssignSequentialIds(points);
  auto grid = GridIndex::Build(points, GridOptions{});
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ((*grid)->num_blocks(), 1u);
  EXPECT_EQ((*grid)->block(0).count(), 50u);
}

TEST(GridIndexTest, RespectsMaxCellsPerAxis) {
  GridOptions options;
  options.target_points_per_cell = 1;
  options.max_cells_per_axis = 4;
  auto grid = GridIndex::Build(MakeUniform(10000, 3), options);
  ASSERT_TRUE(grid.ok());
  EXPECT_LE((*grid)->cols(), 4u);
  EXPECT_LE((*grid)->rows(), 4u);
}

TEST(QuadtreeIndexTest, SplitsUntilCapacity) {
  QuadtreeOptions options;
  options.leaf_capacity = 8;
  auto tree = QuadtreeIndex::Build(MakeUniform(1000, 5), options);
  ASSERT_TRUE(tree.ok());
  for (const Block& block : (*tree)->blocks()) {
    EXPECT_LE(block.count(), 8u);
  }
  EXPECT_GT((*tree)->depth(), 2u);
}

TEST(QuadtreeIndexTest, MaxDepthStopsDuplicateSplitting) {
  // 100 identical points can never split below capacity; the depth cap
  // must terminate construction.
  PointSet points(100, Point{.id = 0, .x = 1, .y = 1});
  AssignSequentialIds(points);
  QuadtreeOptions options;
  options.leaf_capacity = 4;
  options.max_depth = 6;
  auto tree = QuadtreeIndex::Build(points, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE((*tree)->depth(), 6u);
  std::size_t total = 0;
  for (const Block& block : (*tree)->blocks()) total += block.count();
  EXPECT_EQ(total, 100u);
}

TEST(QuadtreeIndexTest, RejectsZeroCapacity) {
  QuadtreeOptions options;
  options.leaf_capacity = 0;
  EXPECT_FALSE(QuadtreeIndex::Build(MakeUniform(10, 1), options).ok());
}

TEST(RTreeIndexTest, LeavesRespectCapacityAndHeightIsLogarithmic) {
  RTreeOptions options;
  options.leaf_capacity = 32;
  options.fanout = 8;
  auto tree = RTreeIndex::Build(MakeUniform(5000, 9), options);
  ASSERT_TRUE(tree.ok());
  for (const Block& block : (*tree)->blocks()) {
    EXPECT_LE(block.count(), 32u);
  }
  EXPECT_GE((*tree)->height(), 2u);
  EXPECT_LE((*tree)->height(), 6u);
}

TEST(RTreeIndexTest, RejectsBadOptions) {
  RTreeOptions options;
  options.fanout = 1;
  EXPECT_FALSE(RTreeIndex::Build(MakeUniform(10, 1), options).ok());
  options.fanout = 8;
  options.leaf_capacity = 0;
  EXPECT_FALSE(RTreeIndex::Build(MakeUniform(10, 1), options).ok());
}

TEST(IndexFactoryTest, BuildsEveryType) {
  const PointSet points = MakeUniform(500, 21);
  for (const IndexType type : testing::AllIndexTypes()) {
    IndexOptions options;
    options.type = type;
    auto index = BuildIndex(points, options);
    ASSERT_TRUE(index.ok()) << ToString(type);
    EXPECT_EQ((*index)->num_points(), points.size());
    EXPECT_FALSE((*index)->Describe().empty());
  }
}

}  // namespace
}  // namespace knnq
