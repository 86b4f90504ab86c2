#include "src/index/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/index/scan_heap.h"

namespace knnq {

namespace {

/// Recursively splits `points` into `shards` leaves, appending split
/// nodes and returning the encoded child link (~shard for a leaf).
/// Splits at the point-count median of the wider axis, biased so each
/// side receives a share proportional to its leaf count; the routing
/// predicate (coord < threshold goes lo) re-partitions the points so
/// build groups and later Route() calls agree exactly, duplicates and
/// boundary points included.
int BuildBisection(PointSet points, std::size_t shards,
                   std::vector<ShardPartition::SplitNode>* nodes,
                   std::size_t* next_shard) {
  if (shards == 1) {
    return ~static_cast<int>((*next_shard)++);
  }
  const std::size_t lo_shards = shards / 2;
  const std::size_t hi_shards = shards - lo_shards;

  const BoundingBox box = BoundingBox::Of(points);
  const int axis = box.width() >= box.height() ? 0 : 1;
  double threshold = 0.0;
  if (!points.empty()) {
    const std::size_t cut = points.size() * lo_shards / shards;
    const auto coord = [axis](const Point& p) {
      return axis == 0 ? p.x : p.y;
    };
    std::nth_element(points.begin(),
                     points.begin() + static_cast<std::ptrdiff_t>(cut),
                     points.end(), [&](const Point& a, const Point& b) {
                       return coord(a) < coord(b);
                     });
    threshold = coord(points[cut]);
  }

  PointSet lo_points, hi_points;
  for (const Point& p : points) {
    const double c = axis == 0 ? p.x : p.y;
    (c < threshold ? lo_points : hi_points).push_back(p);
  }
  points.clear();
  points.shrink_to_fit();

  const std::size_t slot = nodes->size();
  nodes->push_back({});
  const int lo = BuildBisection(std::move(lo_points), lo_shards, nodes,
                                next_shard);
  const int hi = BuildBisection(std::move(hi_points), hi_shards, nodes,
                                next_shard);
  (*nodes)[slot] = ShardPartition::SplitNode{
      .axis = axis, .threshold = threshold, .lo = lo, .hi = hi};
  return static_cast<int>(slot);
}

/// Merged lazy scan over every child's blocks in global key order. The
/// heap starts with one sentinel per non-empty shard keyed by
/// MINDIST(query, union of the shard's block boxes) — a lower bound on
/// any of that shard's block keys for either scan order, since every
/// block box is contained in the union by construction. A child's scan
/// is opened only when its sentinel pops; shards whose sentinel never
/// pops when the caller abandons the scan are the pruned ones. Opening
/// creates the child's scan the first time and restarts it after a
/// Restart of the merged scan, so a held merged scan stops allocating
/// once every shard it reaches has been opened.
class ShardedBlockScan final : public BlockScan {
 public:
  ShardedBlockScan(const ShardedIndex& owner,
                   const std::vector<std::size_t>& block_offset,
                   const Point& query, ScanOrder order)
      : owner_(owner),
        block_offset_(block_offset),
        scans_(owner.num_shards()) {
    Restart(query, order);
  }

  bool HasNext() override {
    // Sentinels always precede at least one real block (only non-empty
    // shards get one), so a non-empty heap means a block remains.
    return !heap_.empty();
  }

  BlockId Next(double* key_dist) override {
    for (;;) {
      KNNQ_DCHECK(!heap_.empty());
      const Entry top = heap_.pop();
      if (top.sentinel) {
        ++opened_;
        BlockScan& scan = owner_.shard(top.shard).RestartScan(
            &scans_[top.shard], query_, order_);
        PushNextOf(top.shard, scan);
        continue;
      }
      PushNextOf(top.shard, *scans_[top.shard]);
      *key_dist = top.key;
      return static_cast<BlockId>(block_offset_[top.shard] + top.block);
    }
  }

  void Restart(const Point& query, ScanOrder order) override {
    query_ = query;
    order_ = order;
    heap_.clear();
    non_empty_ = 0;
    opened_ = 0;
    for (std::size_t s = 0; s < owner_.num_shards(); ++s) {
      if (owner_.shard(s).num_blocks() == 0) continue;
      ++non_empty_;
      heap_.push(Entry{.key = owner_.ShardScanBounds(s).MinDist(query_),
                       .shard = s,
                       .block = kInvalidBlockId,
                       .sentinel = true});
    }
  }

  std::size_t shards_pruned() const override { return non_empty_ - opened_; }

 private:
  struct Entry {
    double key = 0.0;
    std::size_t shard = 0;
    BlockId block = kInvalidBlockId;
    bool sentinel = false;

    /// Min-heap via greater-than; ties break deterministically by
    /// (shard, sentinel-first, block) so scans are reproducible.
    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      if (shard != other.shard) return shard > other.shard;
      if (sentinel != other.sentinel) return !sentinel;
      return block > other.block;
    }
  };

  void PushNextOf(std::size_t shard, BlockScan& scan) {
    if (!scan.HasNext()) return;
    double key = 0.0;
    const BlockId block = scan.Next(&key);
    heap_.push(
        Entry{.key = key, .shard = shard, .block = block, .sentinel = false});
  }

  const ShardedIndex& owner_;
  const std::vector<std::size_t>& block_offset_;
  Point query_;
  ScanOrder order_ = ScanOrder::kMinDist;
  /// Per shard: the child scan, once opened. Kept across Restart.
  std::vector<std::unique_ptr<BlockScan>> scans_;
  ScanHeap<Entry> heap_;
  std::size_t non_empty_ = 0;
  std::size_t opened_ = 0;
};

}  // namespace

std::size_t ShardPartition::Route(double x, double y) const {
  if (num_shards <= 1) return 0;
  if (policy == ShardPolicy::kBisection) {
    int node = 0;
    for (;;) {
      const SplitNode& n = nodes[static_cast<std::size_t>(node)];
      const double c = n.axis == 0 ? x : y;
      node = c < n.threshold ? n.lo : n.hi;
      if (node < 0) return static_cast<std::size_t>(~node);
    }
  }
  // Grid tiling: clamp into the frame, then flatten. The clamp runs in
  // double: a point far outside the frame has a tile coordinate past
  // what size_t holds, and that conversion is undefined.
  const auto tile = [](double fraction, std::size_t tiles) {
    const double t = std::floor(fraction * static_cast<double>(tiles));
    if (!(t > 0.0)) return std::size_t{0};
    const double last = static_cast<double>(tiles - 1);
    return t >= last ? tiles - 1 : static_cast<std::size_t>(t);
  };
  std::size_t i = 0, j = 0;
  if (!frame.empty() && frame.width() > 0.0) {
    i = tile((x - frame.min_x()) / frame.width(), grid_cols);
  }
  if (!frame.empty() && frame.height() > 0.0) {
    j = tile((y - frame.min_y()) / frame.height(), grid_rows);
  }
  return std::min(j * grid_cols + i, num_shards - 1);
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    PointSet points, const IndexOptions& options) {
  if (options.shards < 2) {
    return Status::InvalidArgument(
        "ShardedIndex requires at least 2 shards; use BuildIndex for 1");
  }
  for (const Point& p : points) {
    if (Status s = ValidateInsertable(p); !s.ok()) return s;
  }

  auto partition = std::make_shared<ShardPartition>();
  partition->policy = options.shard_policy;
  partition->num_shards = options.shards;
  if (options.shard_policy == ShardPolicy::kBisection) {
    std::size_t next_shard = 0;
    BuildBisection(points, options.shards, &partition->nodes, &next_shard);
    KNNQ_CHECK_MSG(next_shard == options.shards,
                   "bisection produced a wrong leaf count");
  } else {
    partition->grid_rows = static_cast<std::size_t>(
        std::max(1.0, std::floor(std::sqrt(
                          static_cast<double>(options.shards)))));
    partition->grid_cols =
        (options.shards + partition->grid_rows - 1) / partition->grid_rows;
    partition->frame = BoundingBox::Of(points);
  }

  std::vector<PointSet> groups(options.shards);
  for (const Point& p : points) {
    groups[partition->Route(p.x, p.y)].push_back(p);
  }
  points.clear();
  points.shrink_to_fit();

  IndexOptions child_options = options;
  child_options.shards = 1;
  std::vector<std::shared_ptr<SpatialIndex>> children;
  children.reserve(options.shards);
  for (PointSet& group : groups) {
    auto child = BuildIndex(std::move(group), child_options);
    if (!child.ok()) return child.status();
    children.push_back(std::move(child.value()));
  }
  return FromShards(std::move(partition), std::move(children));
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::FromShards(
    std::shared_ptr<const ShardPartition> partition,
    std::vector<std::shared_ptr<SpatialIndex>> children) {
  if (partition == nullptr || children.size() != partition->num_shards ||
      children.empty()) {
    return Status::InvalidArgument(
        "FromShards: children must match the partition's shard count");
  }
  for (const auto& child : children) {
    if (child == nullptr) {
      return Status::InvalidArgument("FromShards: null child shard");
    }
  }
  std::unique_ptr<ShardedIndex> index(new ShardedIndex());
  index->partition_ = std::move(partition);
  index->child_type_ = children.front()->type();
  index->children_ = std::move(children);
  index->RebuildMirror();
  return index;
}

void ShardedIndex::RebuildMirror() {
  std::size_t total_points = 0;
  std::size_t total_blocks = 0;
  for (const auto& child : children_) {
    total_points += child->num_points();
    total_blocks += child->num_blocks();
  }

  points_.clear();
  xs_.clear();
  ys_.clear();
  ids_.clear();
  blocks_.clear();
  block_shard_.clear();
  points_.reserve(total_points);
  xs_.reserve(total_points);
  ys_.reserve(total_points);
  ids_.reserve(total_points);
  blocks_.reserve(total_blocks);
  block_shard_.reserve(total_blocks);
  shard_scan_bounds_.assign(children_.size(), BoundingBox());
  block_offset_.assign(children_.size() + 1, 0);
  point_offset_.assign(children_.size() + 1, 0);
  bounds_ = BoundingBox();

  for (std::size_t s = 0; s < children_.size(); ++s) {
    const SpatialIndex& child = *children_[s];
    const std::size_t point_base = points_.size();
    block_offset_[s] = blocks_.size();
    point_offset_[s] = point_base;
    points_.insert(points_.end(), child.points().begin(),
                   child.points().end());
    xs_.insert(xs_.end(), child.xs().begin(), child.xs().end());
    ys_.insert(ys_.end(), child.ys().begin(), child.ys().end());
    ids_.insert(ids_.end(), child.ids().begin(), child.ids().end());
    for (const Block& b : child.blocks()) {
      blocks_.push_back(Block{.box = b.box,
                              .begin = b.begin + point_base,
                              .end = b.end + point_base});
      block_shard_.push_back(static_cast<std::uint32_t>(s));
      shard_scan_bounds_[s].Extend(b.box);
    }
    if (child.num_points() > 0) bounds_.Extend(child.bounds());
  }
  block_offset_[children_.size()] = blocks_.size();
  point_offset_[children_.size()] = points_.size();
}

BlockId ShardedIndex::Locate(const Point& p) const {
  const std::size_t s = RouteShard(p);
  const BlockId local = children_[s]->Locate(p);
  if (local == kInvalidBlockId) return kInvalidBlockId;
  return static_cast<BlockId>(block_offset_[s] + local);
}

std::unique_ptr<BlockScan> ShardedIndex::NewScan(const Point& query,
                                                 ScanOrder order) const {
  return std::make_unique<ShardedBlockScan>(*this, block_offset_, query,
                                            order);
}

std::string ShardedIndex::Describe() const {
  return "sharded x" + std::to_string(num_shards()) + " (" +
         ToString(partition_->policy) + ") over " + ToString(child_type_) +
         ", " + std::to_string(num_points()) + " points, " +
         std::to_string(num_blocks()) + " blocks";
}

std::unique_ptr<SpatialIndex> ShardedIndex::Clone() const {
  std::unique_ptr<ShardedIndex> clone(new ShardedIndex());
  clone->partition_ = partition_;
  clone->child_type_ = child_type_;
  clone->children_.reserve(children_.size());
  for (const auto& child : children_) {
    clone->children_.emplace_back(child->Clone());
  }
  clone->RebuildMirror();
  return clone;
}

int ShardedIndex::ShardOfPointId(PointId id) const {
  BlockId block = kInvalidBlockId;
  std::size_t pos = 0;
  if (!FindPoint(id, &block, &pos)) return -1;
  return static_cast<int>(block_shard_[block]);
}

Status ShardedIndex::Insert(const Point& p) {
  if (Status s = ValidateInsertable(p); !s.ok()) return s;
  if (Status s = children_[RouteShard(p)]->Insert(p); !s.ok()) return s;
  RebuildMirror();
  return Status::Ok();
}

Status ShardedIndex::Erase(PointId id) {
  const int s = ShardOfPointId(id);
  if (s < 0) {
    return Status::NotFound("no indexed point with id " + std::to_string(id));
  }
  if (Status st = children_[static_cast<std::size_t>(s)]->Erase(id);
      !st.ok()) {
    return st;
  }
  RebuildMirror();
  return Status::Ok();
}

Status ShardedIndex::BulkLoad(PointSet points) {
  for (const Point& p : points) {
    if (Status s = ValidateInsertable(p); !s.ok()) return s;
  }
  std::vector<PointSet> groups(children_.size());
  for (const Point& p : points) {
    groups[RouteShard(p)].push_back(p);
  }
  points.clear();
  points.shrink_to_fit();
  Status failed = Status::Ok();
  for (std::size_t s = 0; s < children_.size(); ++s) {
    if (Status st = children_[s]->BulkLoad(std::move(groups[s]));
        !st.ok() && failed.ok()) {
      failed = st;
    }
  }
  // Resync even on a child failure: the mirror must always reflect
  // whatever the children now hold.
  RebuildMirror();
  return failed;
}

}  // namespace knnq
