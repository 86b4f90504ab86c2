// Naive, Counting and Block-Marking are written once, as templates over
// the selection on E2. Two filters implement it: the kNN-select of
// Section 3 and the rectangular range of its footnote 1 (declared in
// range_select_inner_join.h). A filter says which inner points it
// keeps, where Counting's threshold lies for a point and for a whole
// block, where the contour scan is anchored, and when a block is
// Non-Contributing.

#include "src/core/select_inner_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

  /// Distance from `box` to the nearest focal neighbor: at most
  /// Threshold(e1) for every e1 in `box` (DESIGN.md note 6).
  double BlockThreshold(const BoundingBox& box) const {
    double least = std::numeric_limits<double>::infinity();
    for (const Neighbor& n : nbr_f_) {
      least = std::min(least, box.SquaredMinDist(n.point));
    }
    return std::sqrt(least);
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

  /// At most Threshold(e1) for every e1 in `box` (DESIGN.md note 6).
  double BlockThreshold(const BoundingBox& box) const {
    return range_.MinDist(box);
  }

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

/// Procedure 1, preceded per outer block by a block-level prune
/// (DESIGN.md note 6).
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

  const SpatialIndex& outer = *query.outer;
  const SpatialIndex& inner = *query.inner;
  std::size_t counting_blocks = 0;  // Blocks popped by the pruning scans.
  // The pruning scan, held across the whole loop and restarted per scan.
  std::unique_ptr<BlockScan> held_scan;
  // One pruning scan: pops inner blocks in MAXDIST order from `from`
  // and counts the points of every block whose `reach(id, key)`, its
  // farthest distance from the outer points being pruned, is strictly
  // below `bound` (DESIGN.md note 1). A reach is never below its popped
  // key, so the first key at `bound` ends the scan. True once more than
  // join_k points count: they displace every kept point, each at least
  // `bound` away, from those outer points' neighborhoods.
  const auto prunes = [&](const Point& from, double bound, auto reach) {
    BlockScan& scan = inner.RestartScan(&held_scan, from, ScanOrder::kMaxDist);
    std::size_t count = 0;
    double max_dist = 0.0;
    while (count <= query.join_k && scan.HasNext()) {
      const BlockId id = scan.Next(&max_dist);
      ++counting_blocks;
      if (max_dist >= bound) break;
      if (reach(id, max_dist) < bound) count += inner.block(id).count();
    }
    return count > query.join_k;
  };
  // From one outer point, a block reaches exactly as far as its key.
  const auto key_reach = [](BlockId, double max_dist) { return max_dist; };
  {
    PhaseSpan phase("join_probe", &inner_searcher.stats());
    for (BlockId b = 0; b < outer.num_blocks(); ++b) {
      const Block& block = outer.block(b);
      if (block.count() == 0) continue;
      // Settle the whole block with one scan from its center (DESIGN.md
      // note 6): its bound is at most the threshold of each of its
      // points, and an inner block counts only when its MAXDIST from
      // the whole block is below that bound. A zero bound never prunes;
      // a block the scan cannot settle runs Procedure 1 per point.
      const auto box_reach = [&](BlockId id, double) {
        return block.box.MaxDist(inner.block(id).box);
      };
      const double block_bound = filter.BlockThreshold(block.box);
      if (block_bound > 0.0 &&
          prunes(block.Center(), block_bound, box_reach)) {
        stats->pruned_points += block.count();
        continue;
      }
      for (const Point& e1 : outer.BlockPoints(b)) {
        const double threshold = filter.Threshold(e1);
        if (threshold > 0.0 && prunes(e1, threshold, key_reach)) {
          ++stats->pruned_points;
          continue;
        }
        JoinOne(e1, query.join_k, filter, inner_searcher, stats, pairs);
      }
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
