// Tests for the raw-speed kernel layer: the batched distance kernel
// (scalar and SIMD paths must agree with the per-point reference
// bit-for-bit), the allocation-free TopKQueue, the SoA column mirror,
// bound-based block skipping, the per-searcher arena's steady-state
// reuse, and the allocation count of warm searches, cached searches and
// probe loops.
// The overarching contract is byte-identity: none of these
// optimizations may change a single result bit.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/point.h"
#include "src/core/select_inner_join.h"
#include "src/engine/neighborhood_cache.h"
#include "src/index/distance_kernel.h"
#include "src/index/knn_searcher.h"
#include "src/index/spatial_index.h"
#include "src/index/topk.h"
#include "tests/test_util.h"

// ------------------------------------------------------- alloc counter
// Replacement global allocator that counts every operator new, so the
// allocation tests below can assert exactly how often a warm search
// allocates. Replaceable operators need external linkage, hence global
// scope; each test file is its own binary, so the override is local to
// this suite. The deletes stay out of line: inlined, GCC pairs their
// free() with the caller's operator new and warns of a mismatch.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace knnq {
namespace {

using testing::AllIndexTypes;
using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeIndex;
using testing::MakeUniform;

/// Restores the process-wide SIMD toggle no matter how a test exits.
struct SimdGuard {
  ~SimdGuard() { SetSimdEnabled(true); }
};

std::vector<double> Column(const PointSet& points, bool ys) {
  std::vector<double> column;
  column.reserve(points.size());
  for (const Point& p : points) column.push_back(ys ? p.y : p.x);
  return column;
}

// --- Distance kernel: scalar and SIMD paths vs the Point reference ---

TEST(DistanceKernelTest, BatchMatchesPerPointReferenceBitForBit) {
  SimdGuard guard;
  const PointSet points = MakeCity(1337, 5);  // Odd size: exercises tails.
  const std::vector<double> xs = Column(points, false);
  const std::vector<double> ys = Column(points, true);
  const Point q{.id = -1, .x = 483.25, .y = 391.75};
  std::vector<double> out(points.size());
  for (const bool simd : {false, true}) {
    SetSimdEnabled(simd);
    SquaredDistanceBatch(xs.data(), ys.data(), points.size(), q.x, q.y,
                         out.data());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double expected = SquaredDistance(points[i], q);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(expected))
          << "simd=" << simd << " i=" << i;
    }
  }
}

TEST(DistanceKernelTest, MinMaxMatchReductionOverBatch) {
  SimdGuard guard;
  const PointSet points = MakeClustered(5, 199, 7);  // 995: non-multiple of 4.
  const std::vector<double> xs = Column(points, false);
  const std::vector<double> ys = Column(points, true);
  const Point q{.id = -1, .x = 100.5, .y = 700.25};
  std::vector<double> out(points.size());
  SetSimdEnabled(false);
  SquaredDistanceBatch(xs.data(), ys.data(), points.size(), q.x, q.y,
                       out.data());
  double min_sq = std::numeric_limits<double>::infinity();
  double max_sq = 0.0;
  for (const double sq : out) {
    min_sq = sq < min_sq ? sq : min_sq;
    max_sq = sq > max_sq ? sq : max_sq;
  }
  for (const bool simd : {false, true}) {
    SetSimdEnabled(simd);
    EXPECT_EQ(MinSquaredDistance(xs.data(), ys.data(), points.size(), q.x,
                                 q.y),
              min_sq)
        << "simd=" << simd;
    EXPECT_EQ(MaxSquaredDistance(xs.data(), ys.data(), points.size(), q.x,
                                 q.y),
              max_sq)
        << "simd=" << simd;
  }
}

TEST(DistanceKernelTest, EmptySpanEdgeCases) {
  EXPECT_TRUE(std::isinf(MinSquaredDistance(nullptr, nullptr, 0, 1, 2)));
  EXPECT_EQ(MaxSquaredDistance(nullptr, nullptr, 0, 1, 2), 0.0);
}

TEST(DistanceKernelTest, ToggleRoundTrips) {
  SimdGuard guard;
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  EXPECT_TRUE(SimdEnabled());
}

// --- TopKQueue vs std::priority_queue: identical selection + order ---

TEST(TopKQueueTest, MatchesPriorityQueueSelectionAndOrder) {
  const PointSet points = MakeUniform(500, 11);
  const Point q{.id = -1, .x = 510, .y = 390};
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{7}, std::size_t{499}, std::size_t{1000}}) {
    // Reference: the old evaluator's shape — a max-heap of (sq, id)
    // capped at k, then extracted in ascending order.
    const auto less = [](const TopKEntry& a, const TopKEntry& b) {
      if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
      return a.id < b.id;
    };
    std::priority_queue<TopKEntry, std::vector<TopKEntry>, decltype(less)>
        reference(less);
    std::vector<TopKEntry> storage;
    TopKQueue topk(k, storage);
    for (const Point& p : points) {
      const TopKEntry e{SquaredDistance(p, q), p.id, p.x, p.y};
      if (reference.size() < k) {
        reference.push(e);
      } else if (k > 0 && less(e, reference.top())) {
        reference.pop();
        reference.push(e);
      }
      topk.Push(e);
    }
    const std::vector<TopKEntry>& sorted = topk.SortAscending();
    ASSERT_EQ(sorted.size(), reference.size()) << "k=" << k;
    for (std::size_t i = sorted.size(); i-- > 0;) {
      EXPECT_EQ(sorted[i].id, reference.top().id) << "k=" << k;
      EXPECT_EQ(sorted[i].sq_dist, reference.top().sq_dist);
      reference.pop();
    }
  }
}

TEST(TopKQueueTest, ThresholdIsInfiniteUntilFull) {
  std::vector<TopKEntry> storage;
  TopKQueue topk(2, storage);
  EXPECT_TRUE(std::isinf(topk.threshold()));
  topk.Push({4.0, 1, 0, 0});
  EXPECT_TRUE(std::isinf(topk.threshold()));
  topk.Push({9.0, 2, 0, 0});
  EXPECT_EQ(topk.threshold(), 9.0);
  topk.Push({1.0, 3, 0, 0});  // Displaces 9.0.
  EXPECT_EQ(topk.threshold(), 4.0);
  topk.Push({16.0, 4, 0, 0});  // Beyond the threshold: ignored.
  EXPECT_EQ(topk.threshold(), 4.0);
}

TEST(TopKQueueTest, KZeroAcceptsNothing) {
  std::vector<TopKEntry> storage;
  TopKQueue topk(0, storage);
  topk.Push({1.0, 1, 0, 0});
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_TRUE(topk.SortAscending().empty());
}

TEST(TopKQueueTest, ReusesBorrowedStorageCapacity) {
  std::vector<TopKEntry> storage;
  {
    TopKQueue topk(64, storage);
    for (PointId id = 0; id < 64; ++id) {
      topk.Push({static_cast<double>(id), id, 0, 0});
    }
    (void)topk.SortAscending();
  }
  const std::size_t capacity = storage.capacity();
  ASSERT_GT(capacity, 0u);
  {
    TopKQueue topk(64, storage);  // Second query: same storage, no growth.
    for (PointId id = 0; id < 64; ++id) {
      topk.Push({static_cast<double>(id), id, 0, 0});
    }
    (void)topk.SortAscending();
  }
  EXPECT_EQ(storage.capacity(), capacity);
}

// --- SoA columns mirror the AoS truth after builds ---

TEST(SoAColumnsTest, ColumnsConsistentAfterBuildForAllStructures) {
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(MakeCity(900, 13), type);
    EXPECT_TRUE(index->ColumnsConsistent()) << ToString(type);
    // BlockSoA spans tile the whole relation.
    std::size_t covered = 0;
    for (BlockId id = 0; id < index->num_blocks(); ++id) {
      covered += index->BlockSoA(id).size;
    }
    EXPECT_EQ(covered, index->num_points()) << ToString(type);
  }
}

// --- SIMD on/off A/B: end-to-end results are byte-identical ---

TEST(SimdAbTest, GetKnnByteIdenticalWithSimdOnAndOff) {
  SimdGuard guard;
  const PointSet points = MakeClustered(6, 150, 17);
  Rng rng(19);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    for (int i = 0; i < 30; ++i) {
      const Point q{.id = -1,
                    .x = rng.Uniform(-50, 1050),
                    .y = rng.Uniform(-50, 850)};
      const std::size_t k = 1 + static_cast<std::size_t>(rng.NextIndex(40));
      SetSimdEnabled(true);
      const Neighborhood with_simd = searcher.GetKnn(q, k);
      SetSimdEnabled(false);
      const Neighborhood without = searcher.GetKnn(q, k);
      ASSERT_EQ(with_simd.size(), without.size()) << ToString(type);
      for (std::size_t j = 0; j < with_simd.size(); ++j) {
        EXPECT_EQ(with_simd[j].point.id, without[j].point.id);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(with_simd[j].dist),
                  std::bit_cast<std::uint64_t>(without[j].dist))
            << ToString(type) << " rank " << j;
      }
    }
  }
}

// --- Bound-based block skipping ---

TEST(BlockSkipTest, KCoveringRelationSkipsNothing) {
  // With k >= n every block contributes; the bound can never close the
  // scan early, so the skip counter must stay zero.
  const PointSet points = MakeUniform(400, 23);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    (void)searcher.GetKnn(Point{.id = -1, .x = 500, .y = 400}, 400);
    EXPECT_EQ(searcher.stats().blocks_skipped, 0u) << ToString(type);
  }
}

TEST(BlockSkipTest, SmallKOverManyBlocksSkips) {
  // k=1 over a many-block relation: the locality over-approximates, so
  // the MINDIST-ordered scan must cut off well before the end.
  const PointSet points = MakeUniform(3000, 29);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    KnnSearcher searcher(*index);
    (void)searcher.GetKnn(Point{.id = -1, .x = 500, .y = 400}, 1);
    EXPECT_GT(searcher.stats().blocks_skipped, 0u) << ToString(type);
  }
}

TEST(BlockSkipTest, CounterIsMonotonicAndScannedPlusSkippedCoverLocality) {
  const PointSet points = MakeUniform(2000, 31);
  const auto index = MakeIndex(points);
  KnnSearcher searcher(*index);
  Rng rng(37);
  std::size_t last = 0;
  for (int i = 0; i < 20; ++i) {
    const Point q{.id = -1,
                  .x = rng.Uniform(0, 1000),
                  .y = rng.Uniform(0, 800)};
    (void)searcher.GetKnn(q, 5);
    EXPECT_GE(searcher.stats().blocks_skipped, last);
    last = searcher.stats().blocks_skipped;
  }
  EXPECT_GT(last, 0u);
}

// --- Arena: allocation-free steady state ---

TEST(ArenaTest, FootprintIsStableAcrossRepeatedQueries) {
  const PointSet points = MakeCity(2500, 41);
  const auto index = MakeIndex(points);
  KnnSearcher searcher(*index);
  Rng rng(43);
  // Warm-up pass: capacities grow to the workload's high-water mark.
  std::vector<Point> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(Point{.id = -1,
                            .x = rng.Uniform(0, 1000),
                            .y = rng.Uniform(0, 800)});
    (void)searcher.GetKnn(queries.back(), 12);
  }
  const std::size_t warm = searcher.arena().bytes();
  const std::size_t warm_gauge = searcher.stats().arena_bytes;
  EXPECT_GT(warm, 0u);
  // The reported gauge covers the arena plus the recycled locality
  // scratch, so it can only exceed the arena proper.
  EXPECT_GE(warm_gauge, warm);
  // Steady state: replaying the same workload allocates nothing new.
  for (const Point& q : queries) (void)searcher.GetKnn(q, 12);
  EXPECT_EQ(searcher.arena().bytes(), warm)
      << "arena grew on a replayed workload - the steady state allocates";
  EXPECT_EQ(searcher.stats().arena_bytes, warm_gauge);
}

// --- Allocations: held scans are restarted, not re-created ---

/// Every structure over `points`.
std::vector<std::unique_ptr<SpatialIndex>> AllocationIndexes(
    const PointSet& points) {
  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (const IndexType type : AllIndexTypes()) {
    indexes.push_back(MakeIndex(points, type));
  }
  return indexes;
}

std::vector<Point> RandomQueries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> queries;
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(Point{.id = -1,
                            .x = rng.Uniform(-100, 1100),
                            .y = rng.Uniform(-100, 900)});
  }
  return queries;
}

TEST(AllocationTest, WarmGetKnnAllocatesOnlyTheReturnedNeighborhood) {
  const PointSet points = MakeCity(2500, 41);
  const std::vector<Point> queries = RandomQueries(60, 47);
  for (const auto& index : AllocationIndexes(points)) {
    KnnSearcher searcher(*index);
    // Warm-up: buffers and held scans grow to the workload's high-water
    // mark; the replay then reuses all of them.
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);
    const std::uint64_t before = g_allocations.load();
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);
    // One allocation per call is the returned Neighborhood; anything
    // more is per-query scratch.
    EXPECT_EQ(g_allocations.load() - before, queries.size())
        << index->Describe();
  }
}

TEST(AllocationTest, CachedHitAllocatesOnlyTheReturnedNeighborhood) {
  const PointSet points = MakeCity(2500, 41);
  const std::vector<Point> queries = RandomQueries(60, 49);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    NeighborhoodCache cache;
    CachingKnnSearcher searcher(*index, &cache);
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);  // Fill.
    const std::uint64_t before = g_allocations.load();
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);
    EXPECT_EQ(searcher.stats().cache_hits, queries.size());
    EXPECT_EQ(g_allocations.load() - before, queries.size())
        << ToString(type);
  }
}

TEST(AllocationTest, CachedMissAllocatesTheResultAndOneEntry) {
  const PointSet points = MakeCity(2500, 41);
  const std::vector<Point> queries = RandomQueries(60, 51);
  for (const IndexType type : AllIndexTypes()) {
    const auto index = MakeIndex(points, type);
    NeighborhoodCache cache;
    CachingKnnSearcher searcher(*index, &cache);
    // The first pass warms the searcher's scratch and sizes every
    // shard's index for these keys; dropping the entries keeps both, so
    // the replay's misses allocate only what each one must.
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);
    cache.InvalidateRelation(index.get());
    const std::uint64_t before = g_allocations.load();
    for (const Point& q : queries) (void)searcher.GetKnn(q, 3);
    EXPECT_EQ(searcher.stats().cache_misses, 2 * queries.size());
    EXPECT_EQ(cache.GetStats().insertions, 2 * queries.size());
    EXPECT_EQ(g_allocations.load() - before, 2 * queries.size())
        << ToString(type);
  }
}

TEST(AllocationTest, WarmRestartedScanAllocatesNothing) {
  const PointSet points = MakeCity(2500, 41);
  const std::vector<Point> queries = RandomQueries(60, 53);
  for (const auto& index : AllocationIndexes(points)) {
    std::unique_ptr<BlockScan> held;
    const auto drain_all = [&] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const ScanOrder order =
            i % 2 == 0 ? ScanOrder::kMinDist : ScanOrder::kMaxDist;
        BlockScan& scan = index->RestartScan(&held, queries[i], order);
        double key = 0.0;
        while (scan.HasNext()) scan.Next(&key);
      }
    };
    drain_all();
    const std::uint64_t before = g_allocations.load();
    drain_all();
    EXPECT_EQ(g_allocations.load() - before, 0u) << index->Describe();
  }
}

TEST(AllocationTest, CountingProbeLoopAllocatesLessThanOncePerOuterBlock) {
  // Counting scans the inner relation once per outer block, and once
  // per outer point in the blocks that scan cannot settle (DESIGN.md
  // note 6); with the focal point in a corner most outer points are
  // pruned. The loop holds one scan for all of those scans, so it
  // allocates less than once per outer block: a loop that opened a
  // fresh scan per block would reach the bound by itself.
  // WarmRestartedScanAllocatesNothing holds a warm restart to zero
  // allocations.
  const PointSet outer = MakeUniform(5000, 59);
  const PointSet inner = MakeUniform(5000, 61, /*first_id=*/100000);
  for (const IndexType type : AllIndexTypes()) {
    const auto outer_index = MakeIndex(outer, type);
    const auto inner_index = MakeIndex(inner, type);
    const SelectInnerJoinQuery query{.outer = outer_index.get(),
                                     .inner = inner_index.get(),
                                     .join_k = 3,
                                     .focal = Point{.id = -1, .x = 0, .y = 0},
                                     .select_k = 4};
    SelectInnerJoinStats stats;
    const std::uint64_t before = g_allocations.load();
    const auto pairs = SelectInnerJoinCounting(query, &stats);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_TRUE(pairs.ok());
    EXPECT_GT(stats.pruned_points, outer.size() / 2) << ToString(type);
    EXPECT_LT(allocations, outer_index->num_blocks()) << ToString(type);
  }
}

}  // namespace
}  // namespace knnq
