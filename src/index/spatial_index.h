// SpatialIndex: the structure-independent index contract.
//
// "The algorithms we present do not assume a specific indexing
// structure" (paper, Section 2). Every algorithm in src/core is written
// against this interface; GridIndex, QuadtreeIndex and RTreeIndex
// implement it, and the ablation benches swap them freely.
//
// The contract deliberately exposes exactly what the paper's algorithms
// consume:
//   * enumerable blocks with a bounding region and a point count,
//   * the points inside a block,
//   * MINDIST- and MAXDIST-ordered block scans from an arbitrary point,
//   * Locate: the block that stores a given indexed point,
// plus a mutation API (Insert / Erase / BulkLoad) maintained
// incrementally by every structure, so relations can change without a
// rebuild. Reads stay lock-free: writers are serialized against all
// readers by the owner (QueryEngine's reader/writer protocol).

#ifndef KNNQ_SRC_INDEX_SPATIAL_INDEX_H_
#define KNNQ_SRC_INDEX_SPATIAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/bbox.h"
#include "src/common/point.h"
#include "src/common/status.h"
#include "src/index/block.h"

namespace knnq {

/// Available index structures. Declared here (not in index_factory.h)
/// so SpatialIndex::type() can report the structure without a header
/// cycle; the factory re-exports it.
enum class IndexType {
  kGrid,
  kQuadtree,
  kRTree,
};

/// Which distance metric orders a block scan.
enum class ScanOrder {
  /// Increasing MINDIST(query, block): nearest-possible blocks first.
  kMinDist,
  /// Increasing MAXDIST(query, block): blocks that are certainly fully
  /// near the query first.
  kMaxDist,
};

/// Lazily yields blocks in the requested distance order. Obtained from
/// SpatialIndex::NewScan, which allocates the scan object; a loop that
/// scans once per probe point holds one scan and Restarts it per point
/// (SpatialIndex::RestartScan), so after the first few points the scan
/// reuses its heap storage and allocates nothing.
class BlockScan {
 public:
  virtual ~BlockScan() = default;

  /// True if another block remains.
  virtual bool HasNext() = 0;

  /// Pops the next block. `*key_dist` receives the ordering key: the
  /// block's MINDIST or MAXDIST (true distance, not squared) from the
  /// scan's query point. Requires HasNext().
  virtual BlockId Next(double* key_dist) = 0;

  /// Re-aims the scan at `query` in `order`, keeping its storage: from
  /// here on it yields exactly the (block, key) sequence a fresh
  /// NewScan(query, order) on the same index would, whatever was left
  /// unpopped before. The index must not have been mutated since the
  /// scan was created.
  virtual void Restart(const Point& query, ScanOrder order) = 0;
};

/// Columnar view of one block's point span: parallel x / y / id arrays
/// of `size` elements. The pointers alias the index's SoA storage and
/// stay valid until the next mutation — exactly as long as a
/// BlockPoints span. The distance kernel (src/index/distance_kernel.h)
/// consumes this layout directly.
struct BlockColumns {
  const double* x = nullptr;
  const double* y = nullptr;
  const PointId* id = nullptr;
  std::size_t size = 0;
};

/// A spatial index over one relation (point set).
///
/// Construction copies the relation and groups points by block into one
/// contiguous array, so BlockPoints returns a span without indirection;
/// incremental mutation preserves that layout (spans shift, they never
/// fragment), so cold query performance is unchanged by churn.
///
/// Storage is dual-layout: the AoS point array (BlockPoints / points(),
/// the historical accessors) and parallel SoA columns x[] / y[] / id[]
/// (BlockSoA / xs() / ys() / ids()) kept byte-equal by every mutation
/// path. Hot kernels read the columns — a block scan streams 16
/// bytes/point of coordinates instead of 24-byte AoS records and
/// vectorizes cleanly; structure maintenance code keeps manipulating
/// the AoS array and resyncs the columns through the base-class
/// helpers.
///
/// Concurrency: reads are safe from any number of threads with zero
/// synchronization as long as no mutation is in flight. Insert / Erase /
/// BulkLoad are NOT thread-safe and must be serialized against all
/// readers by the caller — QueryEngine::ExecuteDml does exactly that with a
/// writer lock. BlockScan objects are single-threaded.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  SpatialIndex(const SpatialIndex&) = delete;
  SpatialIndex& operator=(const SpatialIndex&) = delete;

  /// Process-unique identity of this index OBJECT (not its contents):
  /// fresh at construction, never reused for the lifetime of the
  /// process. Caches key entries by this id instead of the object's
  /// address, which the allocator may hand to a later index (silently
  /// resurrecting a destroyed index's stale cache entries).
  std::uint64_t instance_id() const { return instance_id_; }

  /// Number of (non-empty) blocks.
  std::size_t num_blocks() const { return blocks_.size(); }

  /// Block metadata. `id` must be < num_blocks().
  const Block& block(BlockId id) const { return blocks_[id]; }

  /// All blocks, for whole-index passes (e.g. Procedure 4 preprocessing).
  const std::vector<Block>& blocks() const { return blocks_; }

  /// The points stored in block `id`.
  std::span<const Point> BlockPoints(BlockId id) const {
    const Block& b = blocks_[id];
    return std::span<const Point>(points_).subspan(b.begin, b.end - b.begin);
  }

  /// Columnar view of the points stored in block `id` — same points,
  /// same order as BlockPoints, as parallel x/y/id arrays.
  BlockColumns BlockSoA(BlockId id) const {
    const Block& b = blocks_[id];
    return {xs_.data() + b.begin, ys_.data() + b.begin,
            ids_.data() + b.begin, b.end - b.begin};
  }

  /// All indexed points, grouped by block.
  const PointSet& points() const { return points_; }

  /// The full coordinate / id columns, parallel to points().
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  const std::vector<PointId>& ids() const { return ids_; }

  /// True when the SoA columns mirror points_ element-for-element.
  /// Every public mutation leaves this invariant holding; tests call it
  /// after each DML statement to catch a maintenance path that forgot
  /// to resync.
  bool ColumnsConsistent() const;

  /// Total number of indexed points.
  std::size_t num_points() const { return points_.size(); }

  /// Bounding box of the indexed data.
  const BoundingBox& bounds() const { return bounds_; }

  /// Returns the block that stores indexed point `p` (matched by
  /// location, and by id where regions can overlap), or kInvalidBlockId
  /// if `p` is not in the index.
  virtual BlockId Locate(const Point& p) const = 0;

  /// The structure this index implements (grid / quadtree / rtree).
  virtual IndexType type() const = 0;

  /// Starts a lazy block scan ordered by `order` from `query`.
  virtual std::unique_ptr<BlockScan> NewScan(const Point& query,
                                             ScanOrder order) const = 0;

  /// Aims the scan a probe loop holds in `*held` at `query`: creates it
  /// with NewScan on first use, restarts it afterwards. `*held` must be
  /// empty or hold a scan of this index. Returns the scan.
  BlockScan& RestartScan(std::unique_ptr<BlockScan>* held, const Point& query,
                         ScanOrder order) const;

  /// One-line structural description, e.g. "grid 64x48, 3072 blocks".
  virtual std::string Describe() const = 0;

  // --- Mutation API (writer-exclusive; see class comment). ---

  /// Adds `p` to the index, maintaining the structure incrementally
  /// (cell counts and boxes for the grid, splits for the quadtree,
  /// choose-leaf + node splits for the R-tree). Structures may fall
  /// back to a full rebuild when incremental upkeep would degrade them
  /// (point outside the built extent, occupancy drift, accumulated
  /// garbage); the object's identity never changes. Fails on non-finite
  /// coordinates.
  virtual Status Insert(const Point& p) = 0;

  /// Removes the indexed point with id `id` (the first match when ids
  /// repeat), merging / condensing underfull regions per structure.
  /// Returns NotFound when no such point is indexed.
  virtual Status Erase(PointId id) = 0;

  /// Replaces the whole relation in one shot — the fast path for mass
  /// updates (KNNQL `LOAD`), equivalent to rebuilding from scratch but
  /// keeping the index object's identity.
  virtual Status BulkLoad(PointSet points) = 0;

 protected:
  SpatialIndex() = default;

  /// Moves the shared storage out of `other` (BulkLoad implementations
  /// rebuild into a scratch index, then adopt its state).
  void AdoptBaseFrom(SpatialIndex& other) {
    points_ = std::move(other.points_);
    blocks_ = std::move(other.blocks_);
    bounds_ = other.bounds_;
    xs_ = std::move(other.xs_);
    ys_ = std::move(other.ys_);
    ids_ = std::move(other.ids_);
  }

  /// Appends `p` to block `b`'s span, shifting every later span right
  /// by one, and widens the block box and index bounds to cover `p`.
  /// Returns the point's position in points_. O(n) in the memmove and
  /// O(num_blocks) in the span fixup — the price of keeping the
  /// contiguous read layout hot.
  std::size_t InsertIntoBlock(BlockId b, const Point& p);

  /// Removes the point at absolute position `pos` of block `b`'s span
  /// (order within the block is not preserved), shifting later spans
  /// left. Block boxes are left as (still valid) supersets.
  void EraseFromBlock(BlockId b, std::size_t pos);

  /// Removes block `b`'s whole span from points_ in one splice; the
  /// block becomes empty. Used when a structure evicts a region
  /// wholesale (R-tree condense-and-reinsert).
  void RemoveSpan(BlockId b);

  /// Finds the first indexed point with id `id`. On success fills
  /// `*block` / `*pos` (absolute position) and returns true.
  bool FindPoint(PointId id, BlockId* block, std::size_t* pos) const;

  /// Rebuilds the SoA columns from points_ wholesale. Build paths call
  /// this once at the end instead of maintaining columns through their
  /// partition / sort shuffles.
  void SyncColumns();

  /// Re-copies positions [begin, end) of points_ into the columns.
  /// For maintenance code that permutes points in place within a span
  /// (quadtree leaf split partitions, R-tree split sort).
  void SyncColumnsRange(std::size_t begin, std::size_t end);

  /// Populated by subclasses during construction.
  PointSet points_;
  std::vector<Block> blocks_;
  BoundingBox bounds_;

  /// SoA mirror of points_: xs_[i] == points_[i].x etc. Maintained by
  /// the base-class span helpers and the Sync* methods above.
  std::vector<double> xs_, ys_;
  std::vector<PointId> ids_;

 private:
  static std::uint64_t NextInstanceId();

  const std::uint64_t instance_id_ = NextInstanceId();
};

/// Shared argument validation for Insert implementations: rejects NaN
/// and infinite coordinates (they would poison every box metric).
Status ValidateInsertable(const Point& p);

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_SPATIAL_INDEX_H_
