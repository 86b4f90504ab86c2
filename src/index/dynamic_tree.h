// DynamicTreeIndex: shared mutable-tree plumbing for QuadtreeIndex and
// RTreeIndex.
//
// Both trees keep their nodes in one flat CSR array (TreeNode: children
// contiguous via first_child/num_children) so that TreeScan can
// traverse either. Mutation has to reshape that array without breaking
// the CSR invariant or the node<->block cross-links; this base class
// owns the bookkeeping:
//
//   * parent_ gives every node its parent, so erase paths can walk
//     leaf -> root without a descent;
//   * block_node_ maps each BlockId to its owning leaf, so block
//     swap-removal can re-aim the moved block's leaf;
//   * child groups grow by relocation: when a group cannot extend in
//     place it is copied to the tail of nodes_ and the old slots die.
//     Dead slots are unreachable from the root (scans never see them);
//     when too many accumulate, the owning index compacts with a full
//     rebuild (TooManyDeadNodes).
//
// Like all SpatialIndex mutation machinery, none of this is
// thread-safe; the engine serializes writers against all readers.

#ifndef KNNQ_SRC_INDEX_DYNAMIC_TREE_H_
#define KNNQ_SRC_INDEX_DYNAMIC_TREE_H_

#include <cstdint>
#include <vector>

#include "src/index/spatial_index.h"
#include "src/index/tree_scan.h"

namespace knnq {

/// Base of the two hierarchical indexes; owns the CSR node array and
/// the link-consistency helpers mutation needs.
class DynamicTreeIndex : public SpatialIndex {
 protected:
  static constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);

  DynamicTreeIndex() = default;

  /// Derives parent_ / block_node_ from scratch after a (re)build and
  /// resets the dead-slot counter.
  void RefreshTreeLinks();

  /// Moves the tree state (and, via AdoptBaseFrom, the base storage)
  /// out of a freshly built scratch index.
  void AdoptTreeFrom(DynamicTreeIndex& other);

  /// Appends a fresh node and its parent link; returns its slot.
  std::uint32_t NewNode(const TreeNode& node, std::uint32_t parent);

  /// Copies slot `from` into slot `to` and re-aims every inbound link:
  /// the children's parent_ entries, a leaf's block_node_ entry, and
  /// root_. Slot `from` is dead afterwards (counted). The parent's
  /// first_child is NOT touched — callers manage group membership.
  void MoveNode(std::uint32_t from, std::uint32_t to);

  /// Appends `child` to `parent`'s child group, relocating the whole
  /// group to the tail of nodes_ when it cannot grow in place. Returns
  /// the new child's slot. The caller fixes the new child's outbound
  /// links (block_node_ for a leaf, children's parent_ for an internal
  /// node); previously held child indices of this group are stale.
  std::uint32_t AttachNewChild(std::uint32_t parent, const TreeNode& child);

  /// Removes `child` from `parent`'s group by moving the group's last
  /// member into its slot. `child`'s slot (or the vacated last slot)
  /// is dead afterwards.
  void DetachChild(std::uint32_t parent, std::uint32_t child);

  /// Swap-removes block `id`, re-aiming the moved block's leaf. The
  /// block must already be detached from any live leaf.
  void RemoveBlock(BlockId id);

  /// Recomputes boxes bottom-up from `node` to the root: a leaf from
  /// its block box, an internal node from its children (R-tree MBR
  /// tightening after erase; quadtree regions never shrink).
  void TightenUpward(std::uint32_t node);

  /// Accumulates the subtree's block span into [*begin, *end): callers
  /// seed *begin with SIZE_MAX and *end with 0.
  void SubtreeSpan(std::uint32_t node, std::size_t* begin,
                   std::size_t* end) const;

  /// True when at least half the node array is dead slots — the signal
  /// to compact with a full rebuild.
  bool TooManyDeadNodes() const {
    return nodes_.size() > 64 && 2 * dead_nodes_ > nodes_.size();
  }

  /// Returns the index to the empty-tree state (no nodes, no blocks,
  /// no points).
  void ResetTreeEmpty();

  std::vector<TreeNode> nodes_;
  /// Node -> parent slot; kNoNode for the root (and for dead slots).
  std::vector<std::uint32_t> parent_;
  /// BlockId -> owning leaf slot.
  std::vector<std::uint32_t> block_node_;
  std::uint32_t root_ = kNoNode;
  std::size_t dead_nodes_ = 0;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_DYNAMIC_TREE_H_
