// Index factory: build any SpatialIndex implementation from one options
// struct. Benches and the planner use this to swap structures without
// touching algorithm code, which is how the "structure independence"
// claim of the paper's Section 2 is exercised.

#ifndef KNNQ_SRC_INDEX_INDEX_FACTORY_H_
#define KNNQ_SRC_INDEX_INDEX_FACTORY_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/index/spatial_index.h"

namespace knnq {

// IndexType lives in spatial_index.h (SpatialIndex::type() reports it);
// this header re-exports it for historical includes.

/// Human-readable index type name ("grid", "quadtree", "rtree").
const char* ToString(IndexType type);

/// Unified construction parameters; fields irrelevant to the selected
/// type are ignored.
struct IndexOptions {
  IndexType type = IndexType::kGrid;

  /// Target (grid) or maximum (trees) number of points per block.
  /// Every other structure parameter keeps its GridOptions /
  /// QuadtreeOptions / RTreeOptions default.
  std::size_t block_capacity = 64;
};

/// Builds the configured index over a copy-by-value point set.
Result<std::unique_ptr<SpatialIndex>> BuildIndex(PointSet points,
                                                 const IndexOptions& options);

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_INDEX_FACTORY_H_
