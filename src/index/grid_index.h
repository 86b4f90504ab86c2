// GridIndex: uniform grid over the data's bounding box.
//
// The paper's evaluation indexes all datasets with "a simple grid" to
// show the algorithms work even with the simplest block structure; this
// is the default index in the benchmark harness. Cells are sized so that
// the average occupancy approximates `GridOptions::target_points_per_cell`
// and cells stay roughly square. Only non-empty cells become blocks.
//
// Block scans use an incremental ring expansion around the query cell
// rather than heapifying every block, so starting a scan is O(1); the
// Counting algorithm (Procedure 1) relies on this to scan a handful of
// blocks per outer tuple.

#ifndef KNNQ_SRC_INDEX_GRID_INDEX_H_
#define KNNQ_SRC_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// Construction parameters for GridIndex.
struct GridOptions {
  /// Average number of points per cell the sizing heuristic aims for.
  std::size_t target_points_per_cell = 64;

  /// Upper bound on cells per axis, to cap memory on huge sparse extents.
  std::size_t max_cells_per_axis = 4096;
};

/// Uniform-grid spatial index. Mutable via Insert / Erase / BulkLoad:
/// in-extent inserts and erases maintain per-cell spans, counts and
/// boxes incrementally; a point outside the built extent or an
/// occupancy drift past a factor of two triggers an automatic
/// re-gridding (the cell geometry is only near-optimal for the
/// cardinality it was sized for).
class GridIndex final : public SpatialIndex {
 public:
  /// Builds a grid over `points`. Fails on invalid options
  /// (target_points_per_cell == 0). An empty relation yields a valid
  /// index with zero blocks.
  static Result<std::unique_ptr<GridIndex>> Build(PointSet points,
                                                  const GridOptions& options);

  BlockId Locate(const Point& p) const override;
  std::unique_ptr<BlockScan> NewScan(const Point& query,
                                     ScanOrder order) const override;
  std::string Describe() const override;
  IndexType type() const override { return IndexType::kGrid; }
  Status Insert(const Point& p) override;
  Status Erase(PointId id) override;
  Status BulkLoad(PointSet points) override;

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }

 private:
  friend class GridBlockScan;

  GridIndex() = default;

  /// Cell coordinates of an arbitrary location, clamped into the grid.
  void CellOf(double x, double y, std::size_t* ci, std::size_t* cj) const;

  /// Region box of cell (ci, cj).
  BoundingBox CellBox(std::size_t ci, std::size_t cj) const;

  /// blocks_ index of cell (ci, cj), or kInvalidBlockId if empty.
  BlockId CellBlock(std::size_t ci, std::size_t cj) const {
    return cell_to_block_[cj * cols_ + ci];
  }

  /// Rebuilds this object in place from `points` (cell geometry is
  /// re-derived for the new cardinality and extent).
  Status Rebuild(PointSet points);

  /// True when the point count has drifted far enough from the count
  /// the cell geometry was sized for that a re-grid pays off.
  bool GeometryStale(std::size_t n) const;

  /// Swap-removes the (empty) block `b`, fixing cell_to_block_ links.
  void RemoveEmptyBlock(BlockId b);

  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  /// min(cell_w_, cell_h_): the per-ring distance lower bound.
  double min_cell_dim_ = 0.0;
  std::vector<BlockId> cell_to_block_;
  /// blocks_ index -> flat cell index (the reverse of cell_to_block_).
  std::vector<std::size_t> block_cell_;
  /// Point count the current geometry was sized for.
  std::size_t built_points_ = 0;
  GridOptions options_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_GRID_INDEX_H_
