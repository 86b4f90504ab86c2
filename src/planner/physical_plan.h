// PhysicalPlan: a fully bound, executable evaluation strategy produced
// by Optimize(). Carries the chosen algorithm, the src/core query its
// evaluator takes and the decision rationale (for EXPLAIN). Execute()
// calls that evaluator through one switch over the algorithm.

#ifndef KNNQ_SRC_PLANNER_PHYSICAL_PLAN_H_
#define KNNQ_SRC_PLANNER_PHYSICAL_PLAN_H_

#include <string>
#include <utility>
#include <variant>

#include "src/common/status.h"
#include "src/core/chained_joins.h"
#include "src/core/exec_stats.h"
#include "src/core/range_select_inner_join.h"
#include "src/core/result_types.h"
#include "src/core/select_inner_join.h"
#include "src/core/select_outer_join.h"
#include "src/core/two_selects.h"
#include "src/core/unchained_joins.h"

namespace knnq {

class NeighborhoodCache;  // src/engine/neighborhood_cache.h

/// Every executable strategy the optimizer can pick.
enum class Algorithm {
  kTwoSelectsNaive,
  kTwoSelectsOptimized,
  kSelectInnerJoinNaive,
  kSelectInnerJoinCounting,
  kSelectInnerJoinBlockMarking,
  kSelectOuterJoinPushed,
  kSelectOuterJoinLate,
  kUnchainedNaive,
  kUnchainedBlockMarking,
  kChainedJoinIntersection,
  kChainedNestedJoin,
  kRangeInnerJoinNaive,
  kRangeInnerJoinCounting,
  kRangeInnerJoinBlockMarking,
};

/// Short stable name, e.g. "Counting" or "ChainedJoins(nested)".
const char* ToString(Algorithm algorithm);

/// The result of any supported query shape.
using QueryOutput =
    std::variant<TwoSelectsResult, JoinResult, TripletResult>;

/// The bound query of one of the six shapes, as its evaluators take it.
using PlanQuery =
    std::variant<TwoSelectsQuery, SelectInnerJoinQuery, SelectOuterJoinQuery,
                 UnchainedJoinsQuery, ChainedJoinsQuery,
                 RangeSelectInnerJoinQuery>;

/// An executable plan. Create via Optimize() in optimizer.h, which
/// pairs each algorithm with the query type its evaluator takes.
/// Plans are immutable once built.
class PhysicalPlan {
 public:
  /// `swapped` (unchained joins only): `query` holds A and C, and their
  /// k's, exchanged so the clustered side drives the first join;
  /// Execute() swaps the triplets back into spec order.
  PhysicalPlan(Algorithm algorithm, PlanQuery query, std::string query_text,
               std::string rationale, std::string rule_note,
               bool swapped = false)
      : algorithm_(algorithm),
        query_(std::move(query)),
        swapped_(swapped),
        query_text_(std::move(query_text)),
        rationale_(std::move(rationale)),
        rule_note_(std::move(rule_note)) {}

  Algorithm algorithm() const { return algorithm_; }

  /// Why the optimizer picked this strategy.
  const std::string& rationale() const { return rationale_; }

  /// Multi-line EXPLAIN rendering: query shape, chosen algorithm,
  /// rationale, and the legality rule that constrains the shape. With
  /// `stats` given (from a prior Execute), a final "Stats:" line
  /// reports the uniform execution counters.
  std::string Explain(const ExecStats* stats = nullptr) const;

  /// Runs the plan's evaluator. Safe to call repeatedly and from
  /// several threads at once; plans are immutable. `stats` (optional)
  /// is overwritten with the execution's counters and wall time.
  /// `cache` (optional) is a shared cross-query neighborhood memo
  /// (src/engine/neighborhood_cache.h) forwarded to the evaluator.
  Result<QueryOutput> Execute(ExecStats* stats = nullptr,
                              NeighborhoodCache* cache = nullptr) const;

 private:
  Algorithm algorithm_;
  PlanQuery query_;
  bool swapped_;

  std::string query_text_;
  std::string rationale_;
  std::string rule_note_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_PLANNER_PHYSICAL_PLAN_H_
