#include "src/index/index_factory.h"

#include <utility>

#include "src/index/grid_index.h"
#include "src/index/quadtree_index.h"
#include "src/index/rtree_index.h"

namespace knnq {

const char* ToString(IndexType type) {
  switch (type) {
    case IndexType::kGrid:
      return "grid";
    case IndexType::kQuadtree:
      return "quadtree";
    case IndexType::kRTree:
      return "rtree";
  }
  return "unknown";
}

Result<std::unique_ptr<SpatialIndex>> BuildIndex(
    PointSet points, const IndexOptions& options) {
  switch (options.type) {
    case IndexType::kGrid: {
      GridOptions grid;
      grid.target_points_per_cell = options.block_capacity;
      auto built = GridIndex::Build(std::move(points), grid);
      if (!built.ok()) return built.status();
      return std::unique_ptr<SpatialIndex>(std::move(built.value()));
    }
    case IndexType::kQuadtree: {
      QuadtreeOptions quad;
      quad.leaf_capacity = options.block_capacity;
      auto built = QuadtreeIndex::Build(std::move(points), quad);
      if (!built.ok()) return built.status();
      return std::unique_ptr<SpatialIndex>(std::move(built.value()));
    }
    case IndexType::kRTree: {
      RTreeOptions rtree;
      rtree.leaf_capacity = options.block_capacity;
      auto built = RTreeIndex::Build(std::move(points), rtree);
      if (!built.ok()) return built.status();
      return std::unique_ptr<SpatialIndex>(std::move(built.value()));
    }
  }
  return Status::InvalidArgument("unknown index type");
}

}  // namespace knnq
