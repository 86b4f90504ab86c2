// Naive, Counting and Block-Marking are written once, as templates over
// the selection on E2. Two filters implement it: the kNN-select of
// Section 3 and the rectangular range of its footnote 1 (declared in
// range_select_inner_join.h). A filter says which inner points it
// keeps, where Counting's threshold lies, where the contour scan is
// anchored, and when a block is Non-Contributing.

#include "src/core/select_inner_join.h"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/phase_trace.h"
#include "src/core/range_select_inner_join.h"
#include "src/engine/neighborhood_cache.h"
#include "src/index/distance_kernel.h"
#include "src/index/knn_searcher.h"

namespace knnq {

namespace {

Status ValidateJoin(const SpatialIndex* outer, const SpatialIndex* inner,
                    std::size_t join_k) {
  if (outer == nullptr || inner == nullptr) {
    return Status::InvalidArgument("query relations must be non-null");
  }
  if (join_k == 0) {
    return Status::InvalidArgument("join_k must be > 0");
  }
  return Status::Ok();
}

/// The kNN-select on E2: keeps the focal point's select_k nearest
/// inner points.
class KnnSelectFilter {
 public:
  using Query = SelectInnerJoinQuery;

  static Status Validate(const Query& query) {
    if (Status s = ValidateJoin(query.outer, query.inner, query.join_k);
        !s.ok()) {
      return s;
    }
    if (query.select_k == 0) {
      return Status::InvalidArgument("select_k must be > 0");
    }
    return Status::Ok();
  }

  explicit KnnSelectFilter(const Query& query) : query_(query) {}

  /// Computes the focal neighborhood, and its coordinates as columns
  /// so the per-outer-tuple threshold runs through the batched
  /// distance kernel.
  void Select(CachingKnnSearcher& inner_searcher) {
    PhaseSpan phase("select", &inner_searcher.stats());
    nbr_f_ = inner_searcher.GetKnn(query_.focal, query_.select_k);
    for (const Neighbor& n : nbr_f_) {
      xs_.push_back(n.point.x);
      ys_.push_back(n.point.y);
    }
  }

  /// True when E2 is empty: both predicates are empty.
  bool empty() const { return nbr_f_.empty(); }

  bool Keeps(const Point& p) const { return Contains(nbr_f_, p.id); }

  /// Distance from `e1` to the nearest focal neighbor.
  double Threshold(const Point& e1) const {
    return std::sqrt(
        MinSquaredDistance(xs_.data(), ys_.data(), xs_.size(), e1.x, e1.y));
  }

  Point Anchor() const { return query_.focal; }

  /// With r the k-neighborhood radius of probe c and y the distance from
  /// c to the block's farthest corner, no block point can reach the
  /// focal neighborhood when r + 2y + f_farthest < d(c, focal).
  bool Excludes(double r, double y, const Point& c) const {
    return r + 2.0 * y + nbr_f_.back().dist < Distance(c, query_.focal);
  }

 private:
  const Query& query_;
  Neighborhood nbr_f_;
  std::vector<double> xs_, ys_;
};

/// The range on E2: keeps the inner points inside the rectangle, which
/// plays the focal neighborhood's part with no f_farthest slack.
class RangeFilter {
 public:
  using Query = RangeSelectInnerJoinQuery;

  static Status Validate(const Query& query) {
    if (Status s = ValidateJoin(query.outer, query.inner, query.join_k);
        !s.ok()) {
      return s;
    }
    if (query.range.empty()) {
      return Status::InvalidArgument("selection rectangle must be non-empty");
    }
    return Status::Ok();
  }

  explicit RangeFilter(const Query& query) : range_(query.range) {}

  void Select(CachingKnnSearcher&) {}
  bool empty() const { return false; }
  bool Keeps(const Point& p) const { return range_.Contains(p); }

  /// Every rectangle point is at least MINDIST(e1, rect) from e1.
  double Threshold(const Point& e1) const { return range_.MinDist(e1); }

  Point Anchor() const { return range_.Center(); }

  bool Excludes(double r, double y, const Point& c) const {
    return r + 2.0 * y < range_.MinDist(c);
  }

 private:
  const BoundingBox& range_;
};

/// Computes e1's join neighborhood and emits (e1, n) for every member n
/// the filter keeps.
template <typename Filter>
void JoinOne(const Point& e1, std::size_t join_k, const Filter& filter,
             CachingKnnSearcher& inner_searcher, SelectInnerJoinStats* stats,
             JoinResult& pairs) {
  const Neighborhood nbr_e1 = inner_searcher.GetKnn(e1, join_k);
  ++stats->neighborhoods_computed;
  for (const Neighbor& n : nbr_e1) {
    if (filter.Keeps(n.point)) pairs.push_back(JoinPair{e1, n.point});
  }
}

/// The conceptually correct QEP: the full join runs first; the filter
/// applies to its output, pipelined per pair, so every outer
/// neighborhood is computed - no pruning.
template <typename Filter>
Result<JoinResult> Naive(const typename Filter::Query& query,
                         SelectInnerJoinStats* stats, ExecStats* exec,
                         NeighborhoodCache* shared_cache) {
  if (Status s = Filter::Validate(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Filter filter(query);
  filter.Select(inner_searcher);
  JoinResult pairs;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      JoinOne(e1, query.join_k, filter, inner_searcher, stats, pairs);
    }
  }
  if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
  Canonicalize(pairs);
  return pairs;
}

/// Procedure 1.
template <typename Filter>
Result<JoinResult> Counting(const typename Filter::Query& query,
                            SelectInnerJoinStats* stats, ExecStats* exec,
                            NeighborhoodCache* shared_cache) {
  if (Status s = Filter::Validate(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Filter filter(query);
  filter.Select(inner_searcher);
  JoinResult pairs;
  if (filter.empty()) {
    // Flush the select's scan work.
    if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
    return pairs;
  }

  std::size_t counting_blocks = 0;  // Blocks popped by the pruning scan.
  // The pruning scan, held across outer tuples and restarted per tuple.
  std::unique_ptr<BlockScan> held_scan;
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const Point& e1 : query.outer->points()) {
      // Every kept point is at least `threshold` from e1; points in
      // inner blocks certainly closer displace all of them from e1's
      // neighborhood once more than join_k accumulate.
      const double threshold = filter.Threshold(e1);
      std::size_t count = 0;
      if (threshold > 0.0) {  // A zero threshold never prunes.
        BlockScan& scan =
            query.inner->RestartScan(&held_scan, e1, ScanOrder::kMaxDist);
        double max_dist = 0.0;
        while (count <= query.join_k && scan.HasNext()) {
          const BlockId id = scan.Next(&max_dist);
          ++counting_blocks;
          // Strict comparison: only blocks whose every point is
          // strictly within the threshold may count (DESIGN.md note 1).
          if (max_dist >= threshold) break;
          count += query.inner->block(id).count();
        }
      }
      if (count > query.join_k) {
        ++stats->pruned_points;
        continue;
      }
      JoinOne(e1, query.join_k, filter, inner_searcher, stats, pairs);
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

/// The Non-Contributing test of Section 3.2.1, generalized to an
/// arbitrary probe location c per the Theorem 1 analysis: every point
/// of the block has its join_k neighborhood within r + 2y of c (r the
/// k-neighborhood radius of c, y the distance from c to the block's
/// farthest corner); the filter decides whether that reach misses
/// every kept point. For c = center, 2y is exactly the block diagonal.
template <typename Filter>
bool IsNonContributing(const Block& block, std::size_t join_k,
                       const Filter& filter,
                       CachingKnnSearcher& inner_searcher, ProbePoint probe,
                       SelectInnerJoinStats* stats) {
  ++stats->blocks_preprocessed;
  const Point c =
      probe == ProbePoint::kCenter
          ? block.Center()
          : Point{.id = -1, .x = block.box.min_x(), .y = block.box.min_y()};
  const Neighborhood nbr = inner_searcher.GetKnn(c, join_k);
  if (nbr.size() < join_k) {
    // The inner relation is smaller than join_k: neighborhood radii are
    // unbounded and no block can be excluded.
    return false;
  }
  return filter.Excludes(nbr.back().dist, block.box.MaxDist(c), c);
}

/// Procedures 2 + 3.
template <typename Filter>
Result<JoinResult> BlockMarking(const typename Filter::Query& query,
                                PreprocessMode mode, ProbePoint probe,
                                SelectInnerJoinStats* stats, ExecStats* exec,
                                NeighborhoodCache* shared_cache) {
  if (Status s = Filter::Validate(query); !s.ok()) return s;
  SelectInnerJoinStats local;
  if (stats == nullptr) stats = &local;

  CachingKnnSearcher inner_searcher(*query.inner, shared_cache);
  Filter filter(query);
  filter.Select(inner_searcher);
  JoinResult pairs;
  if (filter.empty()) {
    // Flush the select's scan work.
    if (exec != nullptr) exec->AddSearch(inner_searcher.stats());
    return pairs;
  }

  const SpatialIndex& outer = *query.outer;
  const auto non_contributing = [&](const Block& block) {
    return IsNonContributing(block, query.join_k, filter, inner_searcher,
                             probe, stats);
  };
  std::vector<BlockId> contributing;
  {
    PhaseSpan phase("preprocess", &inner_searcher.stats());
    if (mode == PreprocessMode::kContour) {
      // Procedure 3: scan outer blocks in MINDIST order from the anchor;
      // once an uninterrupted cycle of Non-Contributing blocks wraps
      // past the MAXDIST of its first member, every remaining block is
      // Non-Contributing by the contour argument (Figure 6). cycle_m is
      // that MAXDIST, disengaged while no cycle is open; the paper's
      // pseudocode models this with M = 0, which taken literally stops
      // on the first block (MINDIST 0 >= 0); see DESIGN.md note 2.
      const Point anchor = filter.Anchor();
      std::optional<double> cycle_m;
      auto scan = outer.NewScan(anchor, ScanOrder::kMinDist);
      double min_dist = 0.0;
      while (scan->HasNext()) {
        const BlockId id = scan->Next(&min_dist);
        if (cycle_m.has_value() && min_dist >= *cycle_m) {
          break;  // Closed contour: the rest is Non-Contributing.
        }
        const Block& block = outer.block(id);
        if (non_contributing(block)) {
          if (!cycle_m.has_value()) cycle_m = block.box.MaxDist(anchor);
        } else {
          contributing.push_back(id);
          cycle_m.reset();  // The cycle broke; start over.
        }
      }
    } else {
      for (BlockId id = 0; id < outer.num_blocks(); ++id) {
        if (!non_contributing(outer.block(id))) contributing.push_back(id);
      }
    }
    phase.Count("blocks_scanned", stats->blocks_preprocessed);
    phase.Count("candidates_pruned",
                outer.num_blocks() - contributing.size());
  }
  stats->contributing_blocks = contributing.size();

  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (const BlockId id : contributing) {
      for (const Point& e1 : outer.BlockPoints(id)) {
        JoinOne(e1, query.join_k, filter, inner_searcher, stats, pairs);
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
    exec->candidates_pruned += outer.num_blocks() - contributing.size();
  }
  Canonicalize(pairs);
  return pairs;
}

}  // namespace

Result<JoinResult> SelectInnerJoinNaive(const SelectInnerJoinQuery& query,
                                        SelectInnerJoinStats* stats,
                                        ExecStats* exec,
                                        NeighborhoodCache* shared_cache) {
  return Naive<KnnSelectFilter>(query, stats, exec, shared_cache);
}

Result<JoinResult> SelectInnerJoinCounting(const SelectInnerJoinQuery& query,
                                           SelectInnerJoinStats* stats,
                                           ExecStats* exec,
                                           NeighborhoodCache* shared_cache) {
  return Counting<KnnSelectFilter>(query, stats, exec, shared_cache);
}

Result<JoinResult> SelectInnerJoinBlockMarking(
    const SelectInnerJoinQuery& query, PreprocessMode mode,
    SelectInnerJoinStats* stats, ProbePoint probe, ExecStats* exec,
    NeighborhoodCache* shared_cache) {
  return BlockMarking<KnnSelectFilter>(query, mode, probe, stats, exec,
                                       shared_cache);
}

Result<JoinResult> RangeSelectInnerJoinNaive(
    const RangeSelectInnerJoinQuery& query, SelectInnerJoinStats* stats,
    ExecStats* exec, NeighborhoodCache* shared_cache) {
  return Naive<RangeFilter>(query, stats, exec, shared_cache);
}

Result<JoinResult> RangeSelectInnerJoinCounting(
    const RangeSelectInnerJoinQuery& query, SelectInnerJoinStats* stats,
    ExecStats* exec, NeighborhoodCache* shared_cache) {
  return Counting<RangeFilter>(query, stats, exec, shared_cache);
}

Result<JoinResult> RangeSelectInnerJoinBlockMarking(
    const RangeSelectInnerJoinQuery& query, PreprocessMode mode,
    SelectInnerJoinStats* stats, ExecStats* exec,
    NeighborhoodCache* shared_cache) {
  return BlockMarking<RangeFilter>(query, mode, ProbePoint::kCenter, stats,
                                   exec, shared_cache);
}

}  // namespace knnq
