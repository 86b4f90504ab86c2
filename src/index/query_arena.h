// QueryArena: per-searcher (== per-thread, by KnnSearcher's contract)
// scratch for the query hot path.
//
// Every buffer a kNN search needs — the MINDIST-ordered block list, the
// top-k heap, the batched-distance output, the locality phase-1 list
// and the locality block set — lives here and is recycled between
// queries: accessors clear contents but never shrink capacity. The
// arena also holds the BlockScan locality construction runs, restarted
// per query (BlockScan::Restart) rather than re-created. Buffers and
// the scan's heap grow to a high-water mark over the first few
// queries, after which a search allocates only the Neighborhood it
// returns (tests/kernel_test.cc counts this).
//
// `bytes()` reports the capacity footprint of the arena's own buffers
// (not the held scan's heap) so serving stats can surface how much
// scratch each worker retains.

#ifndef KNNQ_SRC_INDEX_QUERY_ARENA_H_
#define KNNQ_SRC_INDEX_QUERY_ARENA_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/index/block.h"
#include "src/index/spatial_index.h"
#include "src/index/topk.h"

namespace knnq {

class QueryArena {
 public:
  /// (MINDIST^2, block) pairs for nearest-first block ordering.
  std::vector<std::pair<double, BlockId>>& ordered_blocks() {
    ordered_blocks_.clear();
    return ordered_blocks_;
  }

  /// Backing storage for a TopKQueue (the queue clears it on bind).
  std::vector<TopKEntry>& heap() { return heap_; }

  /// Squared-distance output buffer, resized to at least `n` elements.
  double* distances(std::size_t n) {
    if (distances_.size() < n) distances_.resize(n);
    return distances_.data();
  }

  /// Locality construction scratch: blocks popped in phase 1.
  std::vector<BlockId>& phase1() {
    phase1_.clear();
    return phase1_;
  }

  /// The held scan of the searcher's index: empty until its first use,
  /// which creates it with SpatialIndex::RestartScan; later uses
  /// restart it.
  std::unique_ptr<BlockScan>& scan() { return scan_; }

  /// Total bytes of buffer capacity currently retained.
  std::size_t bytes() const;

 private:
  std::vector<std::pair<double, BlockId>> ordered_blocks_;
  std::vector<TopKEntry> heap_;
  std::vector<double> distances_;
  std::vector<BlockId> phase1_;
  std::unique_ptr<BlockScan> scan_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_QUERY_ARENA_H_
