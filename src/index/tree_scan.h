// Best-first block scans over hierarchical indexes.
//
// QuadtreeIndex and RTreeIndex store their nodes in one flat array with
// CSR child links; TreeScan traverses either. The heap is keyed by a
// lower bound of the eventual leaf key, so popping order equals exact
// MINDIST / MAXDIST order over leaf blocks:
//   * kMinDist: internal nodes keyed by MINDIST(node box); every leaf in
//     the subtree has MINDIST >= the node's MINDIST.
//   * kMaxDist: internal nodes are *also* keyed by MINDIST(node box); a
//     leaf's MAXDIST >= its MINDIST >= its ancestor's MINDIST, so the
//     node key is still a valid lower bound for descendant MAXDISTs.
// Leaves are keyed by the exact metric; a leaf at the top of the heap is
// therefore globally next.

#ifndef KNNQ_SRC_INDEX_TREE_SCAN_H_
#define KNNQ_SRC_INDEX_TREE_SCAN_H_

#include <cstdint>
#include <vector>

#include "src/common/bbox.h"
#include "src/index/scan_heap.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// Flat-array tree node shared by QuadtreeIndex and RTreeIndex.
struct TreeNode {
  /// Region (quadtree) or MBR (R-tree) of the subtree.
  BoundingBox box;
  /// First child in the owner's node array; children are contiguous.
  std::uint32_t first_child = 0;
  /// Number of children; 0 for leaves.
  std::uint32_t num_children = 0;
  /// Block id for leaves, kInvalidBlockId for internal nodes.
  BlockId block = kInvalidBlockId;

  bool is_leaf() const { return block != kInvalidBlockId; }
};

/// Best-first scan over a TreeNode array. The owning index keeps the
/// node array alive for the scan's lifetime.
class TreeScan final : public BlockScan {
 public:
  /// `root` is the index of the root node, or a value >= nodes.size()
  /// when the tree is empty.
  TreeScan(const std::vector<TreeNode>& nodes, std::size_t root,
           const Point& query, ScanOrder order);

  bool HasNext() override;
  BlockId Next(double* key_dist) override;
  void Restart(const Point& query, ScanOrder order) override;

 private:
  struct Entry {
    double key;
    std::uint32_t node;
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.key != b.key) return a.key > b.key;
      return a.node > b.node;
    }
  };

  /// Expands internal nodes until the heap top is a leaf (or empty).
  void SettleTop();

  double KeyOf(const TreeNode& node) const;

  const std::vector<TreeNode>& nodes_;
  const std::size_t root_;
  Point query_;
  ScanOrder order_ = ScanOrder::kMinDist;
  ScanHeap<Entry> heap_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_TREE_SCAN_H_
