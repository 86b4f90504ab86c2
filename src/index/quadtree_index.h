// QuadtreeIndex: point-region (PR) quadtree.
//
// "The quadtree and its variants are hierarchical spatial data structures
// that recursively partition the underlying space into blocks until the
// number of points inside a block satisfies some criterion" (paper,
// Section 2). Space is split at region midpoints until a region holds at
// most `leaf_capacity` points or `max_depth` is reached; non-empty leaf
// regions become blocks. Block boxes are the leaf *regions* (not MBRs),
// faithful to the partition-of-space reading.

#ifndef KNNQ_SRC_INDEX_QUADTREE_INDEX_H_
#define KNNQ_SRC_INDEX_QUADTREE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/dynamic_tree.h"
#include "src/index/spatial_index.h"
#include "src/index/tree_scan.h"

namespace knnq {

/// Construction parameters for QuadtreeIndex.
struct QuadtreeOptions {
  /// Split a region while it holds more points than this.
  std::size_t leaf_capacity = 64;

  /// Hard depth cap; duplicate-heavy data stops splitting here.
  std::size_t max_depth = 24;
};

/// PR-quadtree spatial index. Mutable: Insert descends the region
/// partition and splits leaves past leaf_capacity; Erase removes empty
/// leaves and merges a parent's all-leaf children back into one leaf
/// when their total occupancy falls to leaf_capacity / 2 (the
/// hysteresis that keeps churn from ping-ponging split/merge). A point
/// outside the built root region triggers a full rebuild — region
/// geometry is fixed at build time.
class QuadtreeIndex final : public DynamicTreeIndex {
 public:
  /// Builds the tree over `points`. Fails on zero leaf_capacity or depth.
  static Result<std::unique_ptr<QuadtreeIndex>> Build(
      PointSet points, const QuadtreeOptions& options);

  BlockId Locate(const Point& p) const override;
  std::unique_ptr<BlockScan> NewScan(const Point& query,
                                     ScanOrder order) const override;
  std::string Describe() const override;
  IndexType type() const override { return IndexType::kQuadtree; }
  Status Insert(const Point& p) override;
  Status Erase(PointId id) override;
  Status BulkLoad(PointSet points) override;

  std::size_t depth() const { return depth_; }

 private:
  QuadtreeIndex() = default;

  /// Recursively fills pre-allocated node slot `idx` with the subtree
  /// over points_[begin, end) covering `region`. Child slots are claimed
  /// contiguously before recursion so TreeScan's CSR layout holds.
  std::uint32_t FillNode(std::uint32_t idx, std::size_t begin,
                         std::size_t end, const BoundingBox& region,
                         std::size_t depth, const QuadtreeOptions& options);

  /// Rebuilds this object in place from `points`.
  Status Rebuild(PointSet points);

  /// The midpoint quadrant of `region` that the build partition
  /// assigns `p` to (exact same arithmetic as FillNode, so quadrant
  /// boxes compare equal to built child regions).
  static BoundingBox QuadrantBox(const BoundingBox& region, const Point& p);

  /// The child of `node` whose region equals `box`, or kNoNode.
  std::uint32_t FindChildWithBox(std::uint32_t node,
                                 const BoundingBox& box) const;

  /// Splits leaf `node` (at `depth`) into midpoint quadrants,
  /// recursing while a quadrant still overflows and depth allows.
  void SplitLeaf(std::uint32_t node, std::size_t depth);

  /// Merges `parent`'s children into one leaf when they are all leaves
  /// with total occupancy <= leaf_capacity / 2.
  void MaybeMerge(std::uint32_t parent);

  std::size_t depth_ = 0;
  QuadtreeOptions options_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_QUADTREE_INDEX_H_
