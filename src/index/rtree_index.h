// RTreeIndex: Sort-Tile-Recursive (STR) bulk-loaded R-tree.
//
// The paper lists the R-tree and its variants [6, 2, 7] among the
// structures its algorithms run on unchanged. Bulk loading with STR
// (Leutenegger et al.) yields well-packed leaves; after the initial
// build the tree is maintained with the standard dynamic R-tree
// operations: Insert chooses the leaf of least MBR enlargement and
// splits overflowing nodes bottom-up; Erase tightens MBRs and, when a
// leaf underflows (below leaf_capacity / 4), condenses it — the leaf is
// removed and its surviving points re-inserted, Guttman's
// delete-and-reinsert. Leaf MBRs (tight boxes around the contained
// points) are the blocks; internal MBRs cover their children.

#ifndef KNNQ_SRC_INDEX_RTREE_INDEX_H_
#define KNNQ_SRC_INDEX_RTREE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/dynamic_tree.h"
#include "src/index/spatial_index.h"
#include "src/index/tree_scan.h"

namespace knnq {

/// Construction parameters for RTreeIndex.
struct RTreeOptions {
  /// Maximum points per leaf.
  std::size_t leaf_capacity = 64;

  /// Maximum children per internal node.
  std::size_t fanout = 16;
};

/// STR-packed, dynamically maintained R-tree spatial index.
class RTreeIndex final : public DynamicTreeIndex {
 public:
  /// Builds the tree over `points`. Fails when leaf_capacity == 0 or
  /// fanout < 2.
  static Result<std::unique_ptr<RTreeIndex>> Build(PointSet points,
                                                   const RTreeOptions& options);

  BlockId Locate(const Point& p) const override;
  std::unique_ptr<BlockScan> NewScan(const Point& query,
                                     ScanOrder order) const override;
  std::string Describe() const override;
  IndexType type() const override { return IndexType::kRTree; }
  Status Insert(const Point& p) override;
  Status Erase(PointId id) override;
  Status BulkLoad(PointSet points) override;

  std::size_t height() const { return height_; }

 private:
  RTreeIndex() = default;

  /// Rebuilds this object in place from `points` (fresh STR packing).
  Status Rebuild(PointSet points);

  /// The leaf Guttman's ChooseLeaf picks for `p`: least MBR
  /// enlargement, then least area, then lowest slot.
  std::uint32_t ChooseLeaf(const Point& p) const;

  /// Splits an overflowing leaf into two halves along its wider axis;
  /// then splits overflowing ancestors bottom-up.
  void SplitLeaf(std::uint32_t leaf);

  /// Splits internal `node`'s child group in half along the wider
  /// axis of the child centers. The caller loops bottom-up.
  void SplitInternal(std::uint32_t node);

  /// Installs a fresh root above `old_root` (pre-split growth).
  std::uint32_t GrowNewRoot(std::uint32_t old_root);

  /// Reorders `parent`'s child group to `order` (a permutation of
  /// member offsets), fixing every moved child's outbound links.
  void PermuteChildren(std::uint32_t parent,
                       const std::vector<std::uint32_t>& order);

  /// Recomputes the leaf block's tight MBR from its points.
  void RecomputeLeafBox(BlockId block);

  /// Guttman's CondenseTree for one underflowed leaf: unlink it, prune
  /// childless ancestors, collapse single-child roots, re-insert the
  /// surviving points.
  void CondenseLeaf(std::uint32_t leaf);

  std::size_t height_ = 0;
  RTreeOptions options_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_RTREE_INDEX_H_
