#include "src/index/tree_scan.h"

#include "src/common/check.h"

namespace knnq {

TreeScan::TreeScan(const std::vector<TreeNode>& nodes, std::size_t root,
                   const Point& query, ScanOrder order)
    : nodes_(nodes), root_(root) {
  Restart(query, order);
}

void TreeScan::Restart(const Point& query, ScanOrder order) {
  query_ = query;
  order_ = order;
  heap_.clear();
  if (root_ < nodes_.size()) {
    heap_.push(
        Entry{KeyOf(nodes_[root_]), static_cast<std::uint32_t>(root_)});
  }
}

double TreeScan::KeyOf(const TreeNode& node) const {
  if (node.is_leaf() && order_ == ScanOrder::kMaxDist) {
    return node.box.MaxDist(query_);
  }
  // Internal nodes always use MINDIST: it lower-bounds both metrics of
  // every descendant leaf.
  return node.box.MinDist(query_);
}

void TreeScan::SettleTop() {
  while (!heap_.empty()) {
    const TreeNode& node = nodes_[heap_.top().node];
    if (node.is_leaf()) return;
    heap_.pop();
    for (std::uint32_t c = 0; c < node.num_children; ++c) {
      const std::uint32_t child = node.first_child + c;
      heap_.push(Entry{KeyOf(nodes_[child]), child});
    }
  }
}

bool TreeScan::HasNext() {
  SettleTop();
  return !heap_.empty();
}

BlockId TreeScan::Next(double* key_dist) {
  SettleTop();
  KNNQ_CHECK_MSG(!heap_.empty(), "Next() past the end of a tree scan");
  const Entry top = heap_.pop();
  if (key_dist != nullptr) *key_dist = top.key;
  return nodes_[top.node].block;
}

}  // namespace knnq
