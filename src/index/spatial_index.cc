#include "src/index/spatial_index.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/check.h"

namespace knnq {

std::uint64_t SpatialIndex::NextInstanceId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

BlockScan& SpatialIndex::RestartScan(std::unique_ptr<BlockScan>* held,
                                     const Point& query,
                                     ScanOrder order) const {
  if (*held == nullptr) {
    *held = NewScan(query, order);
  } else {
    (*held)->Restart(query, order);
  }
  return **held;
}

Status ValidateInsertable(const Point& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    return Status::InvalidArgument("point coordinates must be finite: " +
                                   p.ToString());
  }
  return Status::Ok();
}

std::size_t SpatialIndex::InsertIntoBlock(BlockId b, const Point& p) {
  KNNQ_DCHECK(b < blocks_.size());
  Block& block = blocks_[b];
  const std::size_t pos = block.end;
  points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(pos), p);
  xs_.insert(xs_.begin() + static_cast<std::ptrdiff_t>(pos), p.x);
  ys_.insert(ys_.begin() + static_cast<std::ptrdiff_t>(pos), p.y);
  ids_.insert(ids_.begin() + static_cast<std::ptrdiff_t>(pos), p.id);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (i == b) continue;
    if (blocks_[i].begin >= pos) {
      ++blocks_[i].begin;
      ++blocks_[i].end;
    }
  }
  ++block.end;
  block.box.Extend(p);
  bounds_.Extend(p);
  return pos;
}

void SpatialIndex::EraseFromBlock(BlockId b, std::size_t pos) {
  KNNQ_DCHECK(b < blocks_.size());
  Block& block = blocks_[b];
  KNNQ_DCHECK(pos >= block.begin && pos < block.end);
  const std::size_t old_end = block.end;
  points_[pos] = points_[old_end - 1];
  xs_[pos] = xs_[old_end - 1];
  ys_[pos] = ys_[old_end - 1];
  ids_[pos] = ids_[old_end - 1];
  points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(old_end - 1));
  xs_.erase(xs_.begin() + static_cast<std::ptrdiff_t>(old_end - 1));
  ys_.erase(ys_.begin() + static_cast<std::ptrdiff_t>(old_end - 1));
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(old_end - 1));
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (i == b) continue;
    if (blocks_[i].begin >= old_end) {
      --blocks_[i].begin;
      --blocks_[i].end;
    }
  }
  --block.end;
}

void SpatialIndex::RemoveSpan(BlockId b) {
  KNNQ_DCHECK(b < blocks_.size());
  Block& block = blocks_[b];
  const std::size_t count = block.end - block.begin;
  if (count == 0) return;
  const auto begin = static_cast<std::ptrdiff_t>(block.begin);
  const auto end = static_cast<std::ptrdiff_t>(block.end);
  points_.erase(points_.begin() + begin, points_.begin() + end);
  xs_.erase(xs_.begin() + begin, xs_.begin() + end);
  ys_.erase(ys_.begin() + begin, ys_.begin() + end);
  ids_.erase(ids_.begin() + begin, ids_.begin() + end);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (i == b) continue;
    if (blocks_[i].begin >= block.end) {
      blocks_[i].begin -= count;
      blocks_[i].end -= count;
    }
  }
  block.end = block.begin;
}

void SpatialIndex::SyncColumns() {
  xs_.resize(points_.size());
  ys_.resize(points_.size());
  ids_.resize(points_.size());
  SyncColumnsRange(0, points_.size());
}

void SpatialIndex::SyncColumnsRange(std::size_t begin, std::size_t end) {
  KNNQ_DCHECK(end <= points_.size() && end <= xs_.size());
  for (std::size_t i = begin; i < end; ++i) {
    xs_[i] = points_[i].x;
    ys_[i] = points_[i].y;
    ids_[i] = points_[i].id;
  }
}

bool SpatialIndex::ColumnsConsistent() const {
  if (xs_.size() != points_.size() || ys_.size() != points_.size() ||
      ids_.size() != points_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    // Bitwise comparison: the columns must be byte-for-byte mirrors
    // (memcmp via bit_cast dodges -0.0 == 0.0 and NaN != NaN).
    if (std::bit_cast<std::uint64_t>(xs_[i]) !=
            std::bit_cast<std::uint64_t>(points_[i].x) ||
        std::bit_cast<std::uint64_t>(ys_[i]) !=
            std::bit_cast<std::uint64_t>(points_[i].y) ||
        ids_[i] != points_[i].id) {
      return false;
    }
  }
  return true;
}

bool SpatialIndex::FindPoint(PointId id, BlockId* block,
                             std::size_t* pos) const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].id != id) continue;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (i >= blocks_[b].begin && i < blocks_[b].end) {
        *block = static_cast<BlockId>(b);
        *pos = i;
        return true;
      }
    }
    KNNQ_CHECK_MSG(false, "indexed point belongs to no block span");
  }
  return false;
}

}  // namespace knnq
