// ShardedIndex unit tests: partition routing, mirror consistency,
// merged scan order, distance-bound shard pruning, and copy-on-write
// composition via Clone / FromShards. Parameterized over both shard
// policies and all three child structures.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "src/index/knn_searcher.h"
#include "src/index/sharded_index.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeClustered;
using testing::MakeUniform;

Result<std::unique_ptr<ShardedIndex>> BuildSharded(
    const PointSet& points, std::size_t shards,
    ShardPolicy policy = ShardPolicy::kBisection,
    IndexType type = IndexType::kGrid) {
  IndexOptions options;
  options.type = type;
  options.block_capacity = 16;
  options.shards = shards;
  options.shard_policy = policy;
  return ShardedIndex::Build(points, options);
}

TEST(ShardedIndexTest, BuildRejectsSingleShard) {
  IndexOptions options;
  options.shards = 1;
  EXPECT_FALSE(ShardedIndex::Build(MakeUniform(32, 1), options).ok());
}

TEST(ShardedIndexTest, FactoryBuildsShardedWhenRequested) {
  IndexOptions options;
  options.shards = 4;
  auto index = BuildIndex(MakeUniform(200, 2), options);
  ASSERT_TRUE(index.ok());
  auto* sharded = dynamic_cast<ShardedIndex*>(index->get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 4u);
}

TEST(ShardedIndexTest, GridRoutingClampsFarPoints) {
  // Tile coordinates of these points overflow size_t; routing clamps
  // them to the frame's corner tiles, and an insert lands there.
  auto built = BuildSharded(MakeUniform(400, 29), 4, ShardPolicy::kGrid);
  ASSERT_TRUE(built.ok());
  ShardedIndex& index = **built;
  const ShardPartition& partition = *index.partition();
  const BoundingBox& frame = partition.frame;
  const std::size_t lowest = partition.Route(frame.min_x(), frame.min_y());
  const std::size_t highest = partition.Route(frame.max_x(), frame.max_y());
  EXPECT_EQ(partition.Route(-1e25, -1e300), lowest);
  EXPECT_EQ(partition.Route(1e300, 1e25), highest);
  ASSERT_TRUE(index.Insert(Point{.id = 9001, .x = 1e25, .y = 1e25}).ok());
  EXPECT_EQ(index.ShardOfPointId(9001), static_cast<int>(highest));
}

class ShardedPolicyTest
    : public ::testing::TestWithParam<std::pair<ShardPolicy, IndexType>> {};

TEST_P(ShardedPolicyTest, EveryPointLivesInItsRoutedShard) {
  const auto [policy, type] = GetParam();
  const PointSet points = MakeClustered(4, 120, 7);
  auto built = BuildSharded(points, 6, policy, type);
  ASSERT_TRUE(built.ok());
  const ShardedIndex& index = **built;

  std::size_t total = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    total += index.shard(s).num_points();
    for (const Point& p : index.shard(s).points()) {
      EXPECT_EQ(index.partition()->Route(p.x, p.y), s)
          << "point " << p.id << " lives in shard " << s
          << " but routes elsewhere";
    }
  }
  EXPECT_EQ(total, points.size());
}

TEST_P(ShardedPolicyTest, MirrorIsTheConcatenationOfChildren) {
  const auto [policy, type] = GetParam();
  const PointSet points = MakeUniform(500, 11);
  auto built = BuildSharded(points, 5, policy, type);
  ASSERT_TRUE(built.ok());
  const ShardedIndex& index = **built;

  EXPECT_EQ(index.num_points(), points.size());
  std::set<PointId> seen;
  for (const Point& p : index.points()) seen.insert(p.id);
  EXPECT_EQ(seen.size(), points.size());

  // Blocks are dense, their spans nest in the mirror, and each block's
  // box sits inside its owning shard's scan bounds (the invariant the
  // merged scan's sentinel keys rely on).
  std::size_t blocks = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    blocks += index.shard(s).num_blocks();
  }
  EXPECT_EQ(index.num_blocks(), blocks);
  for (BlockId b = 0; b < index.num_blocks(); ++b) {
    const Block& block = index.blocks()[b];
    ASSERT_LE(block.end, index.num_points());
    const BoundingBox& frame = index.ShardScanBounds(index.ShardOfBlock(b));
    EXPECT_GE(block.box.min_x(), frame.min_x());
    EXPECT_GE(block.box.min_y(), frame.min_y());
    EXPECT_LE(block.box.max_x(), frame.max_x());
    EXPECT_LE(block.box.max_y(), frame.max_y());
    for (std::size_t i = block.begin; i < block.end; ++i) {
      EXPECT_TRUE(block.box.Contains(index.points()[i]));
    }
  }
}

TEST_P(ShardedPolicyTest, MergedScanYieldsEveryBlockInKeyOrder) {
  const auto [policy, type] = GetParam();
  auto built = BuildSharded(MakeUniform(600, 13), 7, policy, type);
  ASSERT_TRUE(built.ok());
  const ShardedIndex& index = **built;

  const Point query{.id = -1, .x = 320, .y = 410};
  for (const ScanOrder order : {ScanOrder::kMinDist, ScanOrder::kMaxDist}) {
    auto scan = index.NewScan(query, order);
    std::set<BlockId> seen;
    double prev = -1.0;
    while (scan->HasNext()) {
      double key = 0.0;
      const BlockId b = scan->Next(&key);
      ASSERT_LT(b, index.num_blocks());
      EXPECT_TRUE(seen.insert(b).second) << "block visited twice";
      EXPECT_GE(key, prev) << "keys must be non-decreasing";
      prev = key;
    }
    EXPECT_EQ(seen.size(), index.num_blocks());
    // A fully drained scan opened every shard: nothing was pruned.
    EXPECT_EQ(scan->shards_pruned(), 0u);
  }
}

TEST_P(ShardedPolicyTest, AbandonedScanReportsPrunedShards) {
  const auto [policy, type] = GetParam();
  // Clustered data: distant clusters land in distant shards.
  auto built = BuildSharded(MakeClustered(6, 100, 17), 6, policy, type);
  ASSERT_TRUE(built.ok());
  auto scan = (*built)->NewScan(Point{.id = -1, .x = 0, .y = 0},
                                ScanOrder::kMinDist);
  ASSERT_TRUE(scan->HasNext());
  double key = 0.0;
  scan->Next(&key);  // Touch one block, then abandon.
  EXPECT_GT(scan->shards_pruned(), 0u);
}

TEST_P(ShardedPolicyTest, RestartedScanYieldsWhatAFreshScanYields) {
  const auto [policy, type] = GetParam();
  auto built = BuildSharded(MakeClustered(6, 100, 17), 6, policy, type);
  ASSERT_TRUE(built.ok());
  auto held = (*built)->NewScan(Point{.id = -1, .x = 0, .y = 0},
                                ScanOrder::kMaxDist);
  // Aims abandoned near one cluster leave far shards unopened, so the
  // pruned-shard counter is exercised, not just compared at zero.
  EXPECT_GT(testing::ExpectSameScans(**built, *held), 0u);
}

TEST_P(ShardedPolicyTest, GetKnnMatchesUnshardedByteForByte) {
  const auto [policy, type] = GetParam();
  const PointSet points = MakeClustered(5, 80, 19);
  auto plain = testing::MakeIndex(points, type);
  auto built = BuildSharded(points, 8, policy, type);
  ASSERT_TRUE(built.ok());

  KnnSearcher reference(*plain);
  KnnSearcher sharded(**built);
  EXPECT_TRUE(sharded.sharded());
  for (std::size_t i = 0; i < 40; ++i) {
    const Point q{.id = -1,
                  .x = static_cast<double>((i * 97) % 1000),
                  .y = static_cast<double>((i * 131) % 800)};
    const std::size_t k = 1 + i % 9;
    const Neighborhood expected = reference.GetKnn(q, k);
    const Neighborhood actual = sharded.GetKnn(q, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].point.id, expected[j].point.id);
      EXPECT_EQ(actual[j].dist, expected[j].dist);
    }
  }
  // Scatter-gather skipped at least some far shards overall.
  EXPECT_GT(sharded.stats().shards_pruned, 0u);
}

TEST_P(ShardedPolicyTest, InPlaceMutationKeepsTheMirrorConsistent) {
  const auto [policy, type] = GetParam();
  auto built = BuildSharded(MakeUniform(200, 23), 4, policy, type);
  ASSERT_TRUE(built.ok());
  ShardedIndex& index = **built;

  const Point fresh{.id = 100000, .x = 512, .y = 256};
  ASSERT_TRUE(index.Insert(fresh).ok());
  EXPECT_EQ(index.num_points(), 201u);
  EXPECT_TRUE(index.HasPoint(100000));
  EXPECT_EQ(index.ShardOfPointId(100000),
            static_cast<int>(index.RouteShard(fresh)));
  const BlockId at = index.Locate(fresh);
  ASSERT_NE(at, kInvalidBlockId);
  EXPECT_TRUE(index.blocks()[at].box.Contains(fresh));

  ASSERT_TRUE(index.Erase(100000).ok());
  EXPECT_FALSE(index.HasPoint(100000));
  EXPECT_EQ(index.ShardOfPointId(100000), -1);
  EXPECT_TRUE(index.Erase(100000).code() == StatusCode::kNotFound);

  ASSERT_TRUE(index.BulkLoad(MakeUniform(120, 29)).ok());
  EXPECT_EQ(index.num_points(), 120u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShardedPolicyTest,
    ::testing::Values(
        std::make_pair(ShardPolicy::kBisection, IndexType::kGrid),
        std::make_pair(ShardPolicy::kBisection, IndexType::kQuadtree),
        std::make_pair(ShardPolicy::kBisection, IndexType::kRTree),
        std::make_pair(ShardPolicy::kGrid, IndexType::kGrid)),
    [](const auto& info) {
      return std::string(ToString(info.param.first)) + "_" +
             ToString(info.param.second);
    });

TEST(ShardedIndexTest, BisectionBalancesClusteredData) {
  auto built = BuildSharded(MakeClustered(2, 400, 31), 8,
                            ShardPolicy::kBisection);
  ASSERT_TRUE(built.ok());
  std::size_t smallest = 800, largest = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    const std::size_t n = (*built)->shard(s).num_points();
    smallest = std::min(smallest, n);
    largest = std::max(largest, n);
  }
  // Median splits keep shard sizes within a small factor even with all
  // mass in two clusters (a fixed grid would leave most shards empty).
  EXPECT_GE(smallest, 800u / 16);
  EXPECT_LE(largest, 800u / 4);
}

TEST(ShardedIndexTest, CloneIsDeepAndShardedDmlViaFromShardsIsCow) {
  const PointSet points = MakeUniform(300, 37);
  auto built = BuildSharded(points, 4);
  ASSERT_TRUE(built.ok());
  const ShardedIndex& original = **built;

  // Replace one shard with a mutated clone; every other child object
  // is shared.
  const Point fresh{.id = 500000,
                    .x = original.shard(2).points().front().x,
                    .y = original.shard(2).points().front().y};
  const std::size_t target = original.RouteShard(fresh);
  std::vector<std::shared_ptr<SpatialIndex>> children;
  for (std::size_t s = 0; s < original.num_shards(); ++s) {
    children.push_back(original.shard_ptr(s));
  }
  std::shared_ptr<SpatialIndex> clone(children[target]->Clone());
  EXPECT_NE(clone->instance_id(), children[target]->instance_id());
  ASSERT_TRUE(clone->Insert(fresh).ok());
  children[target] = clone;

  auto rewrapped = ShardedIndex::FromShards(original.partition(),
                                            std::move(children));
  ASSERT_TRUE(rewrapped.ok());
  EXPECT_EQ((*rewrapped)->num_points(), 301u);
  EXPECT_TRUE((*rewrapped)->HasPoint(500000));
  // The original wrapper (the snapshot a concurrent reader pinned)
  // never sees the write.
  EXPECT_EQ(original.num_points(), 300u);
  EXPECT_FALSE(original.HasPoint(500000));
  for (std::size_t s = 0; s < original.num_shards(); ++s) {
    if (s == target) continue;
    EXPECT_EQ(original.shard_ptr(s).get(), &(*rewrapped)->shard(s))
        << "untouched shards must be shared, not copied";
  }
}

TEST(ShardedIndexTest, SearchStatsFoldShardsPrunedIntoExecStats) {
  auto built = BuildSharded(MakeClustered(6, 100, 41), 6);
  ASSERT_TRUE(built.ok());
  KnnSearcher searcher(**built);
  searcher.GetKnn(Point{.id = -1, .x = 10, .y = 10}, 3);
  ExecStats stats;
  stats.AddSearch(searcher.stats());
  EXPECT_EQ(stats.shards_pruned, searcher.stats().shards_pruned);
  EXPECT_NE(stats.ToString().find("shards_pruned="), std::string::npos);
}

}  // namespace
}  // namespace knnq
