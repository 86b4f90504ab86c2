#include "src/core/select_inner_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "src/common/check.h"
#include "src/core/phase_trace.h"
#include "src/engine/neighborhood_cache.h"
#include "src/index/distance_kernel.h"
#include "src/index/knn_searcher.h"

namespace knnq {

namespace {

Status ValidateQuery(const SelectInnerJoinQuery& query) {
  if (query.outer == nullptr || query.inner == nullptr) {
    return Status::InvalidArgument("query relations must be non-null");
  }
  if (query.join_k == 0) {
    return Status::InvalidArgument("join_k must be > 0");
  }
  if (query.select_k == 0) {
    return Status::InvalidArgument("select_k must be > 0");
  }
  return Status::Ok();
}

/// The focal neighborhood's coordinates as columns, so the per-outer-
/// tuple threshold below runs through the batched distance kernel
/// (the neighborhood is fixed across the whole outer scan).
struct NeighborhoodColumns {
  std::vector<double> x, y;

  explicit NeighborhoodColumns(const Neighborhood& nbr) {
    x.reserve(nbr.size());
    y.reserve(nbr.size());
    for (const Neighbor& n : nbr) {
      x.push_back(n.point.x);
      y.push_back(n.point.y);
    }
  }
};

/// Distance from `p` to the nearest member of the columns (the Counting
/// algorithm's per-tuple search threshold).
double NearestMemberDistance(const Point& p,
                             const NeighborhoodColumns& cols) {
  return std::sqrt(
      MinSquaredDistance(cols.x.data(), cols.y.data(), cols.x.size(), p.x,
                         p.y));
}

/// Emits (e1, i) for every i in the intersection of e1's neighborhood
/// with the focal neighborhood.
void EmitIntersection(const Point& e1, const Neighborhood& nbr_e1,
                      const Neighborhood& nbr_f, JoinResult& pairs) {
  for (const Neighbor& n : nbr_e1) {
    if (Contains(nbr_f, n.point.id)) {
      pairs.push_back(JoinPair{e1, n.point});
    }
  }
}

}  // namespace

Result<JoinResult> SelectInnerJoinNaive(const SelectInnerJoinQuery& query,
                                        SelectInnerJoinStats* stats,
                                        ExecStats* exec,
                                        NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Neighborhood nbr_f;
  {
    PhaseSpan phase("select", &inner_searcher.stats());
    nbr_f = inner_searcher.GetKnn(query.focal, query.select_k);
  }

  // The conceptually correct QEP: the full join runs first; the select
  // filter applies to its output. The filter is pipelined per pair, but
  // every outer neighborhood is computed - no pruning.
  JoinResult pairs;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
      ++stats->neighborhoods_computed;
      EmitIntersection(e1, nbr_e1, nbr_f, pairs);
    }
  }
  if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
  Canonicalize(pairs);
  return pairs;
}

Result<JoinResult> SelectInnerJoinCounting(const SelectInnerJoinQuery& query,
                                           SelectInnerJoinStats* stats,
                                           ExecStats* exec,
                                           NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Neighborhood nbr_f;
  {
    PhaseSpan phase("select", &inner_searcher.stats());
    nbr_f = inner_searcher.GetKnn(query.focal, query.select_k);
  }
  JoinResult pairs;
  if (nbr_f.empty()) {
    // E2 empty: both predicates empty. Flush the select's scan work.
    if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
    return pairs;
  }

  std::size_t counting_blocks = 0;  // Blocks popped by the pruning scan.
  const NeighborhoodColumns nbr_f_cols(nbr_f);
  // The pruning scan, held across outer tuples and restarted per tuple.
  std::unique_ptr<BlockScan> held_scan;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      // Procedure 1: points in inner blocks certainly closer to e1 than
      // the nearest focal neighbor displace every focal neighbor from
      // e1's k-neighborhood once there are more than join_k of them.
      const double threshold = NearestMemberDistance(e1, nbr_f_cols);
      std::size_t count = 0;
      BlockScan& scan =
          query.inner->RestartScan(&held_scan, e1, ScanOrder::kMaxDist);
      double max_dist = 0.0;
      while (count <= query.join_k && scan.HasNext()) {
        const BlockId id = scan.Next(&max_dist);
        ++counting_blocks;
        // Strict comparison: only blocks whose every point is strictly
        // within the threshold may count (DESIGN.md note 1).
        if (max_dist >= threshold) break;
        count += query.inner->block(id).count();
      }
      if (count > query.join_k) {
        ++stats->pruned_points;
        continue;
      }
      const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
      ++stats->neighborhoods_computed;
      EmitIntersection(e1, nbr_e1, nbr_f, pairs);
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

/// Shared state of the Block-Marking preprocessing checks.
struct BlockMarkingContext {
  const SelectInnerJoinQuery* query;
  CachingKnnSearcher* inner_searcher;
  /// Distance from the focal point to the farthest focal neighbor.
  double f_farthest;
  SelectInnerJoinStats* stats;
  ProbePoint probe;
};

/// The Non-Contributing test of Section 3.2.1, generalized to an
/// arbitrary probe location c per the Theorem 1 analysis: with r the
/// k-neighborhood radius of c over the inner relation, y = the distance
/// from c to the block's farthest corner and f_c = distance from c to
/// the focal point, no point in the block can reach the focal
/// neighborhood when (r + 2y + f_farthest) < f_c. For c = center,
/// 2y equals the block diagonal - exactly the paper's check.
bool IsNonContributing(const Block& block, const BlockMarkingContext& ctx) {
  ++ctx.stats->blocks_preprocessed;
  const Point probe =
      ctx.probe == ProbePoint::kCenter
          ? block.Center()
          : Point{.id = -1, .x = block.box.min_x(), .y = block.box.min_y()};
  const Neighborhood nbr =
      ctx.inner_searcher->GetKnn(probe, ctx.query->join_k);
  if (nbr.size() < ctx.query->join_k) {
    // The inner relation is smaller than join_k: neighborhood radii are
    // unbounded and no block can be excluded.
    return false;
  }
  const double r = nbr.back().dist;
  const double y = block.box.MaxDist(probe);
  const double f_c = Distance(probe, ctx.query->focal);
  return r + 2.0 * y + ctx.f_farthest < f_c;
}

/// Procedure 3: scan outer blocks in MINDIST order from the focal
/// point; once an uninterrupted cycle of Non-Contributing blocks wraps
/// past the MAXDIST of its first member, every remaining block is
/// Non-Contributing by the contour argument (Figure 6).
std::vector<BlockId> PreprocessContour(const BlockMarkingContext& ctx) {
  std::vector<BlockId> contributing;
  // MAXDIST (from the focal point) of the first Non-Contributing block
  // of the currently open cycle; disengaged while a cycle is not open.
  // The paper's pseudocode models this with M = 0, which taken literally
  // stops on the first block (MINDIST 0 >= 0); see DESIGN.md note 2.
  std::optional<double> cycle_m;
  auto scan = ctx.query->outer->NewScan(ctx.query->focal,
                                        ScanOrder::kMinDist);
  double min_dist = 0.0;
  while (scan->HasNext()) {
    const BlockId id = scan->Next(&min_dist);
    if (cycle_m.has_value() && min_dist >= *cycle_m) {
      break;  // Closed contour: the rest is Non-Contributing.
    }
    const Block& block = ctx.query->outer->block(id);
    if (IsNonContributing(block, ctx)) {
      if (!cycle_m.has_value()) {
        cycle_m = block.box.MaxDist(ctx.query->focal);
      }
    } else {
      contributing.push_back(id);
      cycle_m.reset();  // The cycle broke; start over.
    }
  }
  return contributing;
}

/// Exhaustive preprocessing: probe every outer block.
std::vector<BlockId> PreprocessExhaustive(const BlockMarkingContext& ctx) {
  std::vector<BlockId> contributing;
  const std::size_t n = ctx.query->outer->num_blocks();
  for (BlockId id = 0; id < n; ++id) {
    if (!IsNonContributing(ctx.query->outer->block(id), ctx)) {
      contributing.push_back(id);
    }
  }
  return contributing;
}

}  // namespace

Result<JoinResult> SelectInnerJoinBlockMarking(
    const SelectInnerJoinQuery& query, PreprocessMode mode,
    SelectInnerJoinStats* stats, ProbePoint probe, ExecStats* exec,
    NeighborhoodCache* shared_cache) {
  if (Status s = ValidateQuery(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Neighborhood nbr_f;
  {
    PhaseSpan phase("select", &inner_searcher.stats());
    nbr_f = inner_searcher.GetKnn(query.focal, query.select_k);
  }
  JoinResult pairs;
  if (nbr_f.empty()) {
    // Empty inner relation: flush the select's scan work.
    if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
    return pairs;
  }

  const BlockMarkingContext ctx{
      .query = &query,
      .inner_searcher = &inner_searcher,
      .f_farthest = nbr_f.back().dist,
      .stats = stats,
      .probe = probe,
  };
  std::vector<BlockId> contributing;
  {
    PhaseSpan phase("preprocess", &inner_searcher.stats());
    contributing = (mode == PreprocessMode::kContour)
                       ? PreprocessContour(ctx)
                       : PreprocessExhaustive(ctx);
    phase.Count("blocks_scanned", stats->blocks_preprocessed);
    phase.Count("candidates_pruned",
                query.outer->num_blocks() - contributing.size());
  }
  stats->contributing_blocks = contributing.size();

  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const BlockId id : contributing) {
      for (const Point& e1 : query.outer->BlockPoints(id)) {
        const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, query.join_k);
        ++stats->neighborhoods_computed;
        EmitIntersection(e1, nbr_e1, nbr_f, pairs);
      }
    }
  }
  if (exec != nullptr) {
    exec->AddSearch(inner_searcher.stats());
    // The preprocessing pass pops one outer block per probe; count that
    // scan traffic like the Counting evaluators count theirs.
    exec->blocks_scanned += stats->blocks_preprocessed;
    // Every outer block not classified Contributing was excluded
    // wholesale (probed Non-Contributing or skipped by the contour).
    exec->candidates_pruned +=
        query.outer->num_blocks() - contributing.size();
  }
  Canonicalize(pairs);
  return pairs;
}

}  // namespace knnq
