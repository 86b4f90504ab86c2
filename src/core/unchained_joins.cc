#include "src/core/unchained_joins.h"

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/core/knn_join.h"
#include "src/core/phase_trace.h"
#include "src/engine/neighborhood_cache.h"
#include "src/index/knn_searcher.h"

namespace knnq {

namespace {

Status ValidateQuery(const UnchainedJoinsQuery& query) {
  if (query.a == nullptr || query.b == nullptr || query.c == nullptr) {
    return Status::InvalidArgument("query relations must be non-null");
  }
  if (query.k_ab == 0 || query.k_cb == 0) {
    return Status::InvalidArgument("join k values must be > 0");
  }
  return Status::Ok();
}

/// Groups join pairs by the id of their B-side point.
std::unordered_map<PointId, std::vector<PointId>> GroupByInner(
    const JoinResult& pairs) {
  std::unordered_map<PointId, std::vector<PointId>> by_b;
  for (const JoinPair& pair : pairs) {
    by_b[pair.inner.id].push_back(pair.outer.id);
  }
  return by_b;
}

}  // namespace

Result<TripletResult> UnchainedJoinsNaive(const UnchainedJoinsQuery& query,
                                          ExecStats* exec,
                                          NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;

  // Figure 10: both joins in full, then the intersection on B.
  auto ab =
      KnnJoin(query.a->points(), *query.b, query.k_ab, exec, shared_cache);
  if (!ab.ok()) return ab.status();
  auto cb =
      KnnJoin(query.c->points(), *query.b, query.k_cb, exec, shared_cache);
  if (!cb.ok()) return cb.status();

  const auto a_by_b = GroupByInner(*ab);
  TripletResult triplets;
  PhaseSpan phase("intersect_b");
  for (const JoinPair& pair : *cb) {
    const auto it = a_by_b.find(pair.inner.id);
    if (it == a_by_b.end()) continue;
    for (const PointId a_id : it->second) {
      triplets.push_back(
          Triplet{.a = a_id, .b = pair.inner.id, .c = pair.outer.id});
    }
  }
  Canonicalize(triplets);
  return triplets;
}

Result<TripletResult> UnchainedJoinsBlockMarking(
    const UnchainedJoinsQuery& query, UnchainedJoinsStats* stats,
    ExecStats* exec, NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  UnchainedJoinsStats local;
  if (stats == nullptr) stats = &local;

  // Step 1 (Procedure 4 lines 1-3): the first join, in full.
  auto ab =
      KnnJoin(query.a->points(), *query.b, query.k_ab, exec, shared_cache);
  if (!ab.ok()) return ab.status();
  const auto a_by_b = GroupByInner(*ab);

  // Step 2 (lines 4-8): B-blocks holding join results are Candidate;
  // all others are Safe.
  std::vector<bool> candidate(query.b->num_blocks(), false);
  for (const JoinPair& pair : *ab) {
    const BlockId bid = query.b->Locate(pair.inner);
    KNNQ_CHECK_MSG(bid != kInvalidBlockId,
                   "join produced a point missing from B's index");
    if (!candidate[bid]) {
      candidate[bid] = true;
      ++stats->candidate_blocks;
    }
  }

  // Step 3 (lines 9-22): preprocess C. A block is Contributing iff some
  // Candidate B-block lies fully or partially within the search
  // threshold disk around the block's center.
  CachingKnnSearcher b_searcher(*query.b, shared_cache);
  std::vector<BlockId> contributing;
  std::size_t marking_blocks = 0;  // B-blocks popped by the direct scans.
  const auto num_c_blocks = static_cast<BlockId>(query.c->num_blocks());
  // The marking scan, held across C-blocks and restarted per block.
  std::unique_ptr<BlockScan> held_scan;
  {
    PhaseSpan phase("preprocess", &b_searcher.stats());
    for (BlockId id = 0; id < num_c_blocks; ++id) {
      ++stats->blocks_preprocessed;
      const Block& block = query.c->block(id);
      const Point center = block.Center();
      const Neighborhood nbr = b_searcher.GetKnn(center, query.k_cb);
      bool is_contributing = false;
      if (nbr.size() < query.k_cb) {
        // B smaller than k_cb: neighborhood radii are unbounded.
        is_contributing = true;
      } else {
        const double threshold = nbr.back().dist + block.Diagonal();
        BlockScan& scan =
            query.b->RestartScan(&held_scan, center, ScanOrder::kMinDist);
        double min_dist = 0.0;
        while (scan.HasNext()) {
          const BlockId b_block = scan.Next(&min_dist);
          ++marking_blocks;
          if (min_dist > threshold) break;
          if (candidate[b_block]) {
            is_contributing = true;
            break;
          }
        }
      }
      if (is_contributing) contributing.push_back(id);
    }
    phase.Count("blocks_scanned", marking_blocks);
    phase.Count("candidates_pruned",
                query.c->num_blocks() - contributing.size());
  }
  stats->contributing_blocks = contributing.size();

  // Step 4 (lines 23-34): the second join, restricted to Contributing
  // blocks, intersected on B. The per-pair scan of the pseudocode is
  // replaced by a hash probe with identical semantics.
  TripletResult triplets;
  {
    PhaseSpan phase("join_probe", &b_searcher.stats());
    for (const BlockId id : contributing) {
      for (const Point& c_point : query.c->BlockPoints(id)) {
        const Neighborhood nbr_c = b_searcher.GetKnn(c_point, query.k_cb);
        ++stats->neighborhoods_computed;
        for (const Neighbor& bn : nbr_c) {
          const auto it = a_by_b.find(bn.point.id);
          if (it == a_by_b.end()) continue;
          for (const PointId a_id : it->second) {
            triplets.push_back(
                Triplet{.a = a_id, .b = bn.point.id, .c = c_point.id});
          }
        }
      }
    }
  }
  if (exec != nullptr) {
    exec->AddSearch(b_searcher.stats());
    exec->blocks_scanned += marking_blocks;
    exec->candidates_pruned +=
        query.c->num_blocks() - stats->contributing_blocks;
  }
  Canonicalize(triplets);
  return triplets;
}

UnchainedOrder ChooseUnchainedOrder(const CoverageStats& coverage_a,
                                    const CoverageStats& coverage_c) {
  return coverage_a.coverage() <= coverage_c.coverage()
             ? UnchainedOrder::kStartWithA
             : UnchainedOrder::kStartWithC;
}

}  // namespace knnq
