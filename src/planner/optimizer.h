// Optimize(): turn a declarative QuerySpec into an executable
// PhysicalPlan, choosing among the paper's algorithms with the
// statistics-driven heuristics of Sections 3.3, 4.1.2 and 4.2.1:
//
//   * two selects        -> 2-kNN-select (smaller k evaluated first).
//   * select-inner-join  -> Counting for small outer relations,
//                           Block-Marking for large ones (Section 3.3's
//                           density trade-off, Figures 20-21).
//   * select-outer-join  -> always push the select (valid rewrite).
//   * unchained joins    -> independent evaluation when both outer
//                           relations cover most of the space (the
//                           preprocessing would not pay off); otherwise
//                           Block-Marking starting from the
//                           smaller-coverage relation (Section 4.1.2).
//   * chained joins      -> nested join with the neighborhood cache
//                           (Section 4.2.1).
//
// The conceptually correct baselines remain reachable through
// PlannerOptions::force_naive for comparisons and benchmarking.

#ifndef KNNQ_SRC_PLANNER_OPTIMIZER_H_
#define KNNQ_SRC_PLANNER_OPTIMIZER_H_

#include "src/common/status.h"
#include "src/planner/catalog.h"
#include "src/planner/physical_plan.h"
#include "src/planner/query_spec.h"

namespace knnq {

/// Tunables of the planning heuristics.
struct PlannerOptions {
  /// Select-inner-join: use Counting while the outer relation has fewer
  /// points than this; Block-Marking above (Section 3.3). The default
  /// approximates the crossover of Figures 20-21 at this repo's scales.
  std::size_t counting_outer_cutoff = 65536;

  /// Unchained joins: when BOTH outer relations' coverage exceeds this,
  /// data is effectively uniform and preprocessing would not pay off;
  /// evaluate independently (Section 4.1.2, third bullet).
  double uniform_coverage_cutoff = 0.55;

  /// Force the conceptually correct QEP regardless of statistics - the
  /// baseline every experiment compares against.
  bool force_naive = false;
};

/// Plans `spec` against `catalog`. Fails on unknown relations or
/// invalid predicates (k == 0).
Result<PhysicalPlan> Optimize(const Catalog& catalog, const QuerySpec& spec,
                              const PlannerOptions& options = {});

}  // namespace knnq

#endif  // KNNQ_SRC_PLANNER_OPTIMIZER_H_
