#include "src/index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/index/scan_heap.h"

namespace knnq {

namespace {

/// Heap entry: (ordering key, block). Min-heap by key; block id breaks
/// ties deterministically.
struct ScanEntry {
  double key;
  BlockId block;
  friend bool operator>(const ScanEntry& a, const ScanEntry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.block > b.block;
  }
};

}  // namespace

/// Ring-expanding block scan over a grid.
///
/// Ring r is the set of cells at Chebyshev distance r (in cell units)
/// from the query's (clamped) cell. For a query point q and a cell in
/// ring r:
///   MINDIST(q, cell)  >= (r - 1) * min_cell_dim   (r >= 1)
///   MAXDIST(q, cell)  >=  r      * min_cell_dim
/// Both bounds are non-decreasing in r, so the scan keeps a min-heap of
/// exact keys for cells of the rings expanded so far and only expands the
/// next ring when the heap's top could still be beaten by an unexpanded
/// cell. Starting or restarting a scan costs O(1) regardless of grid
/// size.
class GridBlockScan final : public BlockScan {
 public:
  GridBlockScan(const GridIndex& grid, const Point& query, ScanOrder order)
      : grid_(grid) {
    Restart(query, order);
  }

  bool HasNext() override {
    Refill();
    return !heap_.empty();
  }

  BlockId Next(double* key_dist) override {
    Refill();
    KNNQ_CHECK_MSG(!heap_.empty(), "Next() past the end of a block scan");
    const ScanEntry top = heap_.pop();
    if (key_dist != nullptr) *key_dist = top.key;
    return top.block;
  }

  void Restart(const Point& query, ScanOrder order) override {
    query_ = query;
    order_ = order;
    heap_.clear();
    next_ring_ = 0;
    max_ring_ = -1;  // Nothing to expand in an empty grid.
    if (grid_.num_blocks() == 0) return;
    grid_.CellOf(query.x, query.y, &ci_, &cj_);
    const std::size_t chebyshev_x =
        std::max(ci_, grid_.cols_ - 1 - ci_);
    const std::size_t chebyshev_y =
        std::max(cj_, grid_.rows_ - 1 - cj_);
    max_ring_ = static_cast<std::ptrdiff_t>(std::max(chebyshev_x,
                                                     chebyshev_y));
  }

 private:
  /// Lower bound on the key of any cell in ring `r` or beyond.
  double RingBound(std::ptrdiff_t r) const {
    const double steps = (order_ == ScanOrder::kMinDist)
                             ? static_cast<double>(r - 1)
                             : static_cast<double>(r);
    return std::max(0.0, steps) * grid_.min_cell_dim_;
  }

  /// Expands rings until the heap's top is guaranteed globally next.
  void Refill() {
    while (next_ring_ <= max_ring_ &&
           (heap_.empty() || heap_.top().key > RingBound(next_ring_))) {
      ExpandRing(next_ring_);
      ++next_ring_;
    }
  }

  void PushCell(std::size_t ci, std::size_t cj) {
    const BlockId id = grid_.CellBlock(ci, cj);
    if (id == kInvalidBlockId) return;  // Empty cell.
    const BoundingBox& box = grid_.block(id).box;
    const double key = (order_ == ScanOrder::kMinDist) ? box.MinDist(query_)
                                                       : box.MaxDist(query_);
    heap_.push(ScanEntry{key, id});
  }

  void ExpandRing(std::ptrdiff_t r) {
    const std::ptrdiff_t ci = static_cast<std::ptrdiff_t>(ci_);
    const std::ptrdiff_t cj = static_cast<std::ptrdiff_t>(cj_);
    const std::ptrdiff_t cols = static_cast<std::ptrdiff_t>(grid_.cols_);
    const std::ptrdiff_t rows = static_cast<std::ptrdiff_t>(grid_.rows_);
    if (r == 0) {
      PushCell(ci_, cj_);
      return;
    }
    const std::ptrdiff_t x_lo = std::max<std::ptrdiff_t>(ci - r, 0);
    const std::ptrdiff_t x_hi = std::min<std::ptrdiff_t>(ci + r, cols - 1);
    // Top and bottom rows of the ring (full width).
    for (const std::ptrdiff_t y : {cj - r, cj + r}) {
      if (y < 0 || y >= rows) continue;
      for (std::ptrdiff_t x = x_lo; x <= x_hi; ++x) {
        PushCell(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
      }
    }
    // Left and right columns, excluding the corners already pushed.
    const std::ptrdiff_t y_lo = std::max<std::ptrdiff_t>(cj - r + 1, 0);
    const std::ptrdiff_t y_hi = std::min<std::ptrdiff_t>(cj + r - 1, rows - 1);
    for (const std::ptrdiff_t x : {ci - r, ci + r}) {
      if (x < 0 || x >= cols) continue;
      for (std::ptrdiff_t y = y_lo; y <= y_hi; ++y) {
        PushCell(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
      }
    }
  }

  const GridIndex& grid_;
  Point query_;
  ScanOrder order_ = ScanOrder::kMinDist;
  std::size_t ci_ = 0;
  std::size_t cj_ = 0;
  std::ptrdiff_t next_ring_ = 0;
  std::ptrdiff_t max_ring_ = -1;
  ScanHeap<ScanEntry> heap_;
};

Result<std::unique_ptr<GridIndex>> GridIndex::Build(
    PointSet points, const GridOptions& options) {
  if (options.target_points_per_cell == 0) {
    return Status::InvalidArgument("target_points_per_cell must be > 0");
  }
  if (options.max_cells_per_axis == 0) {
    return Status::InvalidArgument("max_cells_per_axis must be > 0");
  }

  auto grid = std::unique_ptr<GridIndex>(new GridIndex());
  grid->options_ = options;
  grid->bounds_ = BoundingBox::Of(points);
  grid->points_ = std::move(points);

  const std::size_t n = grid->points_.size();
  grid->built_points_ = n;
  if (n == 0) {
    grid->cols_ = grid->rows_ = 0;
    grid->SyncColumns();
    return grid;
  }

  // Cell sizing: aim for n / target cells total, roughly square cells.
  const double width = std::max(grid->bounds_.width(), 1e-12);
  const double height = std::max(grid->bounds_.height(), 1e-12);
  const double target_cells = std::max(
      1.0, static_cast<double>(n) /
               static_cast<double>(options.target_points_per_cell));
  const double aspect = width / height;
  double cols_f = std::sqrt(target_cells * aspect);
  double rows_f = std::sqrt(target_cells / aspect);
  const auto clamp_axis = [&](double v) {
    return std::min(static_cast<double>(options.max_cells_per_axis),
                    std::max(1.0, std::ceil(v)));
  };
  grid->cols_ = static_cast<std::size_t>(clamp_axis(cols_f));
  grid->rows_ = static_cast<std::size_t>(clamp_axis(rows_f));
  grid->cell_w_ = width / static_cast<double>(grid->cols_);
  grid->cell_h_ = height / static_cast<double>(grid->rows_);
  grid->min_cell_dim_ = std::min(grid->cell_w_, grid->cell_h_);

  // Counting sort of points into cells.
  const std::size_t num_cells = grid->cols_ * grid->rows_;
  std::vector<std::size_t> cell_counts(num_cells, 0);
  std::vector<std::size_t> cell_of_point(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t ci, cj;
    grid->CellOf(grid->points_[i].x, grid->points_[i].y, &ci, &cj);
    const std::size_t cell = cj * grid->cols_ + ci;
    cell_of_point[i] = cell;
    ++cell_counts[cell];
  }

  std::vector<std::size_t> cell_begin(num_cells + 1, 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_begin[c + 1] = cell_begin[c] + cell_counts[c];
  }

  PointSet sorted(n);
  std::vector<std::size_t> cursor(cell_begin.begin(), cell_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[cursor[cell_of_point[i]]++] = grid->points_[i];
  }
  grid->points_ = std::move(sorted);

  // Materialize non-empty cells as blocks. Cell rectangles are widened
  // by their points' bounding box: points exactly on the grid's outer
  // border can otherwise fall one ulp outside the arithmetic cell
  // bounds, and the only property the algorithms need is that every
  // point lies inside its block's box.
  grid->cell_to_block_.assign(num_cells, kInvalidBlockId);
  for (std::size_t cj = 0; cj < grid->rows_; ++cj) {
    for (std::size_t ci = 0; ci < grid->cols_; ++ci) {
      const std::size_t cell = cj * grid->cols_ + ci;
      if (cell_counts[cell] == 0) continue;
      grid->cell_to_block_[cell] =
          static_cast<BlockId>(grid->blocks_.size());
      grid->block_cell_.push_back(cell);
      Block block{.box = grid->CellBox(ci, cj),
                  .begin = cell_begin[cell],
                  .end = cell_begin[cell + 1]};
      for (std::size_t i = block.begin; i < block.end; ++i) {
        block.box.Extend(grid->points_[i]);
      }
      grid->blocks_.push_back(block);
    }
  }
  grid->SyncColumns();
  return grid;
}

Status GridIndex::Rebuild(PointSet points) {
  auto built = Build(std::move(points), options_);
  if (!built.ok()) return built.status();
  GridIndex& other = **built;
  AdoptBaseFrom(other);
  cols_ = other.cols_;
  rows_ = other.rows_;
  cell_w_ = other.cell_w_;
  cell_h_ = other.cell_h_;
  min_cell_dim_ = other.min_cell_dim_;
  cell_to_block_ = std::move(other.cell_to_block_);
  block_cell_ = std::move(other.block_cell_);
  built_points_ = other.built_points_;
  return Status::Ok();
}

bool GridIndex::GeometryStale(std::size_t n) const {
  // Asymmetric hysteresis: re-grid when growth doubles the average
  // occupancy the sizing heuristic aimed for, but tolerate shrinking
  // to a quarter before re-gridding (an oversized grid merely scans a
  // few more cells; an undersized one packs cells past the capacity
  // the pruning maths were tuned for). The slack constant keeps small
  // relations from re-gridding on every insert.
  return n > 2 * built_points_ + 4 * options_.target_points_per_cell ||
         4 * n + 4 * options_.target_points_per_cell < built_points_;
}

void GridIndex::RemoveEmptyBlock(BlockId b) {
  KNNQ_DCHECK(blocks_[b].count() == 0);
  cell_to_block_[block_cell_[b]] = kInvalidBlockId;
  const BlockId last = static_cast<BlockId>(blocks_.size() - 1);
  if (b != last) {
    blocks_[b] = blocks_[last];
    block_cell_[b] = block_cell_[last];
    cell_to_block_[block_cell_[b]] = b;
  }
  blocks_.pop_back();
  block_cell_.pop_back();
}

Status GridIndex::Insert(const Point& p) {
  if (Status s = ValidateInsertable(p); !s.ok()) return s;
  // Outside the built extent the cell geometry does not cover p (and
  // extending an edge cell's box would break the ring scan's distance
  // bounds); drifted occupancy makes the geometry a poor fit. Both
  // re-grid.
  if (cols_ == 0 || !bounds_.Contains(p) ||
      GeometryStale(points_.size() + 1)) {
    PointSet points = std::move(points_);
    points.push_back(p);
    return Rebuild(std::move(points));
  }
  std::size_t ci, cj;
  CellOf(p.x, p.y, &ci, &cj);
  const std::size_t cell = cj * cols_ + ci;
  BlockId b = cell_to_block_[cell];
  if (b == kInvalidBlockId) {
    b = static_cast<BlockId>(blocks_.size());
    cell_to_block_[cell] = b;
    block_cell_.push_back(cell);
    blocks_.push_back(Block{.box = CellBox(ci, cj),
                            .begin = points_.size(),
                            .end = points_.size()});
  }
  InsertIntoBlock(b, p);
  return Status::Ok();
}

Status GridIndex::Erase(PointId id) {
  BlockId b;
  std::size_t pos;
  if (!FindPoint(id, &b, &pos)) {
    return Status::NotFound("no indexed point with id " +
                            std::to_string(id));
  }
  EraseFromBlock(b, pos);
  if (blocks_[b].count() == 0) RemoveEmptyBlock(b);
  if (points_.empty() || GeometryStale(points_.size())) {
    return Rebuild(std::move(points_));
  }
  return Status::Ok();
}

Status GridIndex::BulkLoad(PointSet points) {
  return Rebuild(std::move(points));
}

void GridIndex::CellOf(double x, double y, std::size_t* ci,
                       std::size_t* cj) const {
  KNNQ_DCHECK(cols_ > 0 && rows_ > 0);
  // Clamp in double before converting: a query far off the grid (KNNQL
  // accepts any finite point) yields a cell coordinate past what
  // size_t holds, and that conversion is undefined.
  const auto clamp_cell = [](double v, std::size_t cells) {
    if (!(v > 0.0)) return std::size_t{0};
    const double last = static_cast<double>(cells - 1);
    return v >= last ? cells - 1 : static_cast<std::size_t>(v);
  };
  *ci = clamp_cell((x - bounds_.min_x()) / cell_w_, cols_);
  *cj = clamp_cell((y - bounds_.min_y()) / cell_h_, rows_);
}

BoundingBox GridIndex::CellBox(std::size_t ci, std::size_t cj) const {
  const double x0 = bounds_.min_x() + static_cast<double>(ci) * cell_w_;
  const double y0 = bounds_.min_y() + static_cast<double>(cj) * cell_h_;
  return BoundingBox(x0, y0, x0 + cell_w_, y0 + cell_h_);
}

BlockId GridIndex::Locate(const Point& p) const {
  if (num_blocks() == 0 || !bounds_.Contains(p)) return kInvalidBlockId;
  std::size_t ci, cj;
  CellOf(p.x, p.y, &ci, &cj);
  return CellBlock(ci, cj);
}

std::unique_ptr<BlockScan> GridIndex::NewScan(const Point& query,
                                              ScanOrder order) const {
  return std::make_unique<GridBlockScan>(*this, query, order);
}

std::string GridIndex::Describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "grid %zux%zu, %zu blocks, %zu points",
                cols_, rows_, num_blocks(), num_points());
  return buf;
}

}  // namespace knnq
