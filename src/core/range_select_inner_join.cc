#include "src/core/range_select_inner_join.h"

#include <memory>
#include <optional>
#include <vector>

#include "src/core/phase_trace.h"
#include "src/engine/neighborhood_cache.h"
#include "src/index/knn_searcher.h"

namespace knnq {

namespace {

Status ValidateQuery(const RangeSelectInnerJoinQuery& query) {
  if (query.outer == nullptr || query.inner == nullptr) {
    return Status::InvalidArgument("query relations must be non-null");
  }
  if (query.join_k == 0) {
    return Status::InvalidArgument("join_k must be > 0");
  }
  if (query.range.empty()) {
    return Status::InvalidArgument("selection rectangle must be non-empty");
  }
  return Status::Ok();
}

/// Emits (e1, i) for every neighbor i inside the rectangle.
void EmitInRange(const Point& e1, const Neighborhood& nbr_e1,
                 const BoundingBox& range, JoinResult& pairs) {
  for (const Neighbor& n : nbr_e1) {
    if (range.Contains(n.point)) pairs.push_back(JoinPair{e1, n.point});
  }
}

}  // namespace

Result<JoinResult> RangeSelectInnerJoinNaive(
    const RangeSelectInnerJoinQuery& query, SelectInnerJoinStats* stats,
    ExecStats* exec, NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  JoinResult pairs;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
      ++stats->neighborhoods_computed;
      EmitInRange(e1, nbr_e1, query.range, pairs);
    }
  }
  if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
  Canonicalize(pairs);
  return pairs;
}

Result<JoinResult> RangeSelectInnerJoinCounting(
    const RangeSelectInnerJoinQuery& query, SelectInnerJoinStats* stats,
    ExecStats* exec, NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  JoinResult pairs;
  std::size_t counting_blocks = 0;  // Blocks popped by the pruning scan.
  // The pruning scan, held across outer tuples and restarted per tuple.
  std::unique_ptr<BlockScan> held_scan;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      // Every rectangle point is at distance >= MINDIST(e1, rect);
      // points in blocks strictly closer displace all of them from e1's
      // neighborhood once more than join_k accumulate.
      const double threshold = query.range.MinDist(e1);
      std::size_t count = 0;
      if (threshold > 0.0) {  // e1 inside the rectangle never prunes.
        BlockScan& scan =
            query.inner->RestartScan(&held_scan, e1, ScanOrder::kMaxDist);
        double max_dist = 0.0;
        while (count <= query.join_k && scan.HasNext()) {
          const BlockId id = scan.Next(&max_dist);
          ++counting_blocks;
          if (max_dist >= threshold) break;
          count += query.inner->block(id).count();
        }
      }
      if (count > query.join_k) {
        ++stats->pruned_points;
        continue;
      }
      const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
      ++stats->neighborhoods_computed;
      EmitInRange(e1, nbr_e1, query.range, pairs);
    }
    phase.Count("blocks_scanned", counting_blocks);
    phase.Count("candidates_pruned", stats->pruned_points);
  }
  if (exec != nullptr) {
    exec->AddSearch(inner_searcher.stats());
    exec->blocks_scanned += counting_blocks;
    exec->candidates_pruned += stats->pruned_points;
  }
  Canonicalize(pairs);
  return pairs;
}

namespace {

struct RangeMarkingContext {
  const RangeSelectInnerJoinQuery* query;
  CachingKnnSearcher* inner_searcher;
  SelectInnerJoinStats* stats;
};

/// Non-Contributing test: every point of the block has its join_k
/// neighborhood within r + 2y of the block center (r the center's
/// neighborhood radius, y the center-to-corner distance), while every
/// rectangle point is at least MINDIST(center, rect) away.
bool IsNonContributing(const Block& block, const RangeMarkingContext& ctx) {
  ++ctx.stats->blocks_preprocessed;
  const Point center = block.Center();
  const Neighborhood nbr =
      ctx.inner_searcher->GetKnn(center, ctx.query->join_k);
  if (nbr.size() < ctx.query->join_k) return false;
  const double r = nbr.back().dist;
  const double y = block.box.MaxDist(center);
  return r + 2.0 * y < ctx.query->range.MinDist(center);
}

}  // namespace

Result<JoinResult> RangeSelectInnerJoinBlockMarking(
    const RangeSelectInnerJoinQuery& query, PreprocessMode mode,
    SelectInnerJoinStats* stats, ExecStats* exec,
    NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  const RangeMarkingContext ctx{
      .query = &query,
      .inner_searcher = &inner_searcher,
      .stats = stats,
  };

  std::vector<BlockId> contributing;
  {
    PhaseSpan phase("preprocess", &inner_searcher.stats());
    if (mode == PreprocessMode::kContour) {
      // Same cycle rule as Procedure 3, ordered from the rectangle
      // center.
      const Point anchor = query.range.Center();
      std::optional<double> cycle_m;
      auto scan = query.outer->NewScan(anchor, ScanOrder::kMinDist);
      double min_dist = 0.0;
      while (scan->HasNext()) {
        const BlockId id = scan->Next(&min_dist);
        if (cycle_m.has_value() && min_dist >= *cycle_m) break;
        const Block& block = query.outer->block(id);
        if (IsNonContributing(block, ctx)) {
          if (!cycle_m.has_value()) cycle_m = block.box.MaxDist(anchor);
        } else {
          contributing.push_back(id);
          cycle_m.reset();
        }
      }
    } else {
      const std::size_t n = query.outer->num_blocks();
      for (BlockId id = 0; id < n; ++id) {
        if (!IsNonContributing(query.outer->block(id), ctx)) {
          contributing.push_back(id);
        }
      }
    }
    phase.Count("blocks_scanned", stats->blocks_preprocessed);
    phase.Count("candidates_pruned",
                query.outer->num_blocks() - contributing.size());
  }
  stats->contributing_blocks = contributing.size();

  JoinResult pairs;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const BlockId id : contributing) {
      for (const Point& e1 : query.outer->BlockPoints(id)) {
        const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
        ++stats->neighborhoods_computed;
        EmitInRange(e1, nbr_e1, query.range, pairs);
      }
    }
  }
  if (exec != nullptr) {
    exec->AddSearch(inner_searcher.stats());
    // One outer-block pop per preprocessing probe.
    exec->blocks_scanned += stats->blocks_preprocessed;
    exec->candidates_pruned +=
        query.outer->num_blocks() - contributing.size();
  }
  Canonicalize(pairs);
  return pairs;
}

}  // namespace knnq
