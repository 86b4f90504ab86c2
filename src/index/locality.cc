#include "src/index/locality.h"

#include <algorithm>

#include "src/common/check.h"

namespace knnq {

Locality ComputeLocality(const SpatialIndex& index, const Point& query,
                         std::size_t k, double restrict_to_threshold,
                         SearchStats* stats) {
  Locality locality;
  std::vector<BlockId> phase1_scratch;
  std::unique_ptr<BlockScan> scan;
  ComputeLocalityInto(index, query, k, restrict_to_threshold, stats,
                      phase1_scratch, scan, locality);
  return locality;
}

void ComputeLocalityInto(const SpatialIndex& index, const Point& query,
                         std::size_t k, double restrict_to_threshold,
                         SearchStats* stats,
                         std::vector<BlockId>& phase1_scratch,
                         std::unique_ptr<BlockScan>& held_scan,
                         Locality& out) {
  Locality& locality = out;
  locality.blocks.clear();
  locality.max_dist_bound = std::numeric_limits<double>::infinity();
  if (stats != nullptr) ++stats->localities_computed;
  if (index.num_blocks() == 0 || k == 0) {
    locality.max_dist_bound = 0.0;
    return;
  }

  // Phase 1: MAXDIST order until the counted points reach k.
  std::vector<BlockId>& phase1 = phase1_scratch;  // Popped, kept or not.
  phase1.clear();
  std::size_t count = 0;
  double m = std::numeric_limits<double>::infinity();
  {
    BlockScan& scan =
        index.RestartScan(&held_scan, query, ScanOrder::kMaxDist);
    double key = 0.0;
    while (count < k && scan.HasNext()) {
      const BlockId id = scan.Next(&key);
      if (stats != nullptr) ++stats->blocks_scanned;
      count += index.block(id).count();
      phase1.push_back(id);
      if (index.block(id).box.MinDist(query) <= restrict_to_threshold) {
        locality.blocks.push_back(id);
      }
    }
    if (count >= k) {
      m = key;  // MAXDIST of the last block that completed the count.
    }
    // Otherwise the whole index holds fewer than k points: every block
    // was popped and (subject to the threshold) added; M stays infinite
    // and phase 2 has nothing left to do.
  }
  locality.max_dist_bound = m;
  if (count < k) return;

  // Phase 2: MINDIST order; every point within M lives in a block with
  // MINDIST <= M. Skip blocks already taken in phase 1.
  const double add_bound = std::min(m, restrict_to_threshold);
  BlockScan& scan = index.RestartScan(&held_scan, query, ScanOrder::kMinDist);
  double key = 0.0;
  while (scan.HasNext()) {
    const BlockId id = scan.Next(&key);
    if (key > add_bound) break;
    if (stats != nullptr) ++stats->blocks_scanned;
    if (std::find(phase1.begin(), phase1.end(), id) != phase1.end()) {
      continue;
    }
    locality.blocks.push_back(id);
  }
}

}  // namespace knnq
