#include "src/planner/optimizer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/unchained_joins.h"
#include "src/data/distribution_stats.h"
#include "src/lang/unparser.h"
#include "src/planner/rules.h"

namespace knnq {

namespace {

Status CheckK(std::size_t k, const char* what) {
  if (k == 0) {
    return Status::InvalidArgument(std::string(what) + " requires k > 0");
  }
  return Status::Ok();
}

Result<const SpatialIndex*> Resolve(const Catalog& catalog,
                                    const std::string& name) {
  auto relation = catalog.Get(name);
  if (!relation.ok()) return relation.status();
  return (*relation)->index.get();
}

Result<PhysicalPlan> PlanTwoSelects(const Catalog& catalog,
                                    const TwoSelectsSpec& spec,
                                    const PlannerOptions& options) {
  if (Status s = CheckK(spec.s1.k, "select"); !s.ok()) return s;
  if (Status s = CheckK(spec.s2.k, "select"); !s.ok()) return s;
  auto relation = Resolve(catalog, spec.relation);
  if (!relation.ok()) return relation.status();

  const bool naive = options.force_naive;
  std::ostringstream why;
  if (naive) {
    why << "forced conceptually correct QEP (both selects in full)";
  } else {
    why << "2-kNN-select clips the k=" << std::max(spec.s1.k, spec.s2.k)
        << " locality with the k=" << std::min(spec.s1.k, spec.s2.k)
        << " result's search threshold (Procedure 5)";
  }
  return PhysicalPlan(
      naive ? Algorithm::kTwoSelectsNaive : Algorithm::kTwoSelectsOptimized,
      TwoSelectsQuery{.relation = *relation,
                      .f1 = spec.s1.focal,
                      .k1 = spec.s1.k,
                      .f2 = spec.s2.focal,
                      .k2 = spec.s2.k},
      knnql::Unparse(spec), why.str(),
      RuleRationale(Rewrite::kCascadeSelects));
}

Result<PhysicalPlan> PlanSelectInnerJoin(const Catalog& catalog,
                                         const SelectInnerJoinSpec& spec,
                                         const PlannerOptions& options) {
  if (Status s = CheckK(spec.join_k, "join"); !s.ok()) return s;
  if (Status s = CheckK(spec.select.k, "select"); !s.ok()) return s;
  auto outer = Resolve(catalog, spec.outer);
  if (!outer.ok()) return outer.status();
  auto inner = Resolve(catalog, spec.inner);
  if (!inner.ok()) return inner.status();

  Algorithm algorithm;
  std::ostringstream why;
  if (options.force_naive) {
    algorithm = Algorithm::kSelectInnerJoinNaive;
    why << "forced conceptually correct QEP (full join, filter after)";
  } else if ((*outer)->num_points() < options.counting_outer_cutoff) {
    algorithm = Algorithm::kSelectInnerJoinCounting;
    why << "outer has " << (*outer)->num_points() << " points < cutoff "
        << options.counting_outer_cutoff
        << ": per-tuple Counting beats per-block preprocessing "
           "(Section 3.3, Fig. 20)";
  } else {
    algorithm = Algorithm::kSelectInnerJoinBlockMarking;
    why << "outer has " << (*outer)->num_points() << " points >= cutoff "
        << options.counting_outer_cutoff
        << ": Block-Marking amortizes pruning per block "
           "(Section 3.3, Fig. 21)";
  }
  return PhysicalPlan(
      algorithm,
      SelectInnerJoinQuery{.outer = *outer,
                           .inner = *inner,
                           .join_k = spec.join_k,
                           .focal = spec.select.focal,
                           .select_k = spec.select.k},
      knnql::Unparse(spec), why.str(),
      RuleRationale(Rewrite::kPushSelectBelowInnerJoinInput));
}

Result<PhysicalPlan> PlanSelectOuterJoin(const Catalog& catalog,
                                         const SelectOuterJoinSpec& spec,
                                         const PlannerOptions& options) {
  if (Status s = CheckK(spec.join_k, "join"); !s.ok()) return s;
  if (Status s = CheckK(spec.select.k, "select"); !s.ok()) return s;
  auto outer = Resolve(catalog, spec.outer);
  if (!outer.ok()) return outer.status();
  auto inner = Resolve(catalog, spec.inner);
  if (!inner.ok()) return inner.status();

  const bool naive = options.force_naive;
  return PhysicalPlan(
      naive ? Algorithm::kSelectOuterJoinLate
            : Algorithm::kSelectOuterJoinPushed,
      SelectOuterJoinQuery{.outer = *outer,
                           .inner = *inner,
                           .join_k = spec.join_k,
                           .focal = spec.select.focal,
                           .select_k = spec.select.k},
      knnql::Unparse(spec),
      naive ? "forced late filter (join everything, then select)"
            : "selection on the OUTER side pushes below the join safely; "
              "only the k selected points are joined",
      RuleRationale(Rewrite::kPushSelectBelowOuterJoinInput));
}

Result<PhysicalPlan> PlanUnchained(const Catalog& catalog,
                                   const UnchainedJoinsSpec& spec,
                                   const PlannerOptions& options) {
  if (Status s = CheckK(spec.k_ab, "join"); !s.ok()) return s;
  if (Status s = CheckK(spec.k_cb, "join"); !s.ok()) return s;
  auto a = Resolve(catalog, spec.a);
  if (!a.ok()) return a.status();
  auto b = Resolve(catalog, spec.b);
  if (!b.ok()) return b.status();
  auto c = Resolve(catalog, spec.c);
  if (!c.ok()) return c.status();

  // Coverage over a common frame drives both decisions of Section 4.1.2.
  // The probe resolution adapts to cardinality so that a uniform
  // relation reads as high coverage regardless of its size: with ~8
  // points per probe cell, uniform occupancy approaches 1 while tight
  // clusters stay near their area fraction.
  BoundingBox frame = (*a)->bounds();
  frame.Extend((*c)->bounds());
  const std::size_t max_n =
      std::max((*a)->num_points(), (*c)->num_points());
  const std::size_t probe_cells = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::sqrt(static_cast<double>(max_n) / 8.0)),
      8, 64);
  const CoverageStats cov_a =
      EstimateCoverage((*a)->points(), frame, probe_cells);
  const CoverageStats cov_c =
      EstimateCoverage((*c)->points(), frame, probe_cells);

  std::ostringstream why;
  why << "coverage(" << spec.a << ")=" << cov_a.coverage() << ", coverage("
      << spec.c << ")=" << cov_c.coverage() << " over the common frame; ";

  Algorithm algorithm;
  bool swapped = false;
  if (options.force_naive) {
    algorithm = Algorithm::kUnchainedNaive;
    why << "forced conceptually correct QEP (independent joins)";
  } else if (cov_a.coverage() > options.uniform_coverage_cutoff &&
             cov_c.coverage() > options.uniform_coverage_cutoff) {
    algorithm = Algorithm::kUnchainedNaive;
    why << "both outer relations are near-uniform: Block-Marking "
           "preprocessing would not pay off (Section 4.1.2)";
  } else {
    algorithm = Algorithm::kUnchainedBlockMarking;
    swapped = ChooseUnchainedOrder(cov_a, cov_c) ==
              UnchainedOrder::kStartWithC;
    why << "start with the smaller-coverage relation ("
        << (swapped ? spec.c : spec.a)
        << ") so more blocks of the other side prune (Section 4.1.2)";
  }
  // A swapped plan runs (C JOIN B) first: C takes A's place.
  const UnchainedJoinsQuery query =
      swapped ? UnchainedJoinsQuery{.a = *c,
                                    .b = *b,
                                    .c = *a,
                                    .k_ab = spec.k_cb,
                                    .k_cb = spec.k_ab}
              : UnchainedJoinsQuery{.a = *a,
                                    .b = *b,
                                    .c = *c,
                                    .k_ab = spec.k_ab,
                                    .k_cb = spec.k_cb};
  return PhysicalPlan(algorithm, query, knnql::Unparse(spec), why.str(),
                      RuleRationale(Rewrite::kCascadeUnchainedJoins),
                      swapped);
}

Result<PhysicalPlan> PlanChained(const Catalog& catalog,
                                 const ChainedJoinsSpec& spec,
                                 const PlannerOptions& options) {
  if (Status s = CheckK(spec.k_ab, "join"); !s.ok()) return s;
  if (Status s = CheckK(spec.k_bc, "join"); !s.ok()) return s;
  auto a = Resolve(catalog, spec.a);
  if (!a.ok()) return a.status();
  auto b = Resolve(catalog, spec.b);
  if (!b.ok()) return b.status();
  auto c = Resolve(catalog, spec.c);
  if (!c.ok()) return c.status();

  const bool naive = options.force_naive;
  return PhysicalPlan(
      naive ? Algorithm::kChainedJoinIntersection
            : Algorithm::kChainedNestedJoin,
      ChainedJoinsQuery{.a = *a,
                        .b = *b,
                        .c = *c,
                        .k_ab = spec.k_ab,
                        .k_bc = spec.k_bc},
      knnql::Unparse(spec),
      naive ? "forced conceptually correct QEP (both joins independently, "
              "intersect on B)"
            : "nested join touches only b's reachable from A; the hash "
              "cache collapses repeated (B JOIN C) probes (Section 4.2.1)",
      RuleRationale(Rewrite::kReorderChainedJoins));
}

Result<PhysicalPlan> PlanRangeInnerJoin(const Catalog& catalog,
                                        const RangeInnerJoinSpec& spec,
                                        const PlannerOptions& options) {
  if (Status s = CheckK(spec.join_k, "join"); !s.ok()) return s;
  if (spec.range.empty()) {
    return Status::InvalidArgument("selection rectangle must be non-empty");
  }
  auto outer = Resolve(catalog, spec.outer);
  if (!outer.ok()) return outer.status();
  auto inner = Resolve(catalog, spec.inner);
  if (!inner.ok()) return inner.status();

  // The Counting/Block-Marking trade-off is the same as the kNN-select
  // case: the range behaves as a select whose "neighborhood" is fixed.
  Algorithm algorithm;
  std::ostringstream why;
  if (options.force_naive) {
    algorithm = Algorithm::kRangeInnerJoinNaive;
    why << "forced conceptually correct QEP (full join, filter after)";
  } else if ((*outer)->num_points() < options.counting_outer_cutoff) {
    algorithm = Algorithm::kRangeInnerJoinCounting;
    why << "outer has " << (*outer)->num_points() << " points < cutoff "
        << options.counting_outer_cutoff << ": per-tuple Counting";
  } else {
    algorithm = Algorithm::kRangeInnerJoinBlockMarking;
    why << "outer has " << (*outer)->num_points() << " points >= cutoff "
        << options.counting_outer_cutoff << ": Block-Marking";
  }
  return PhysicalPlan(
      algorithm,
      RangeSelectInnerJoinQuery{.outer = *outer,
                                .inner = *inner,
                                .join_k = spec.join_k,
                                .range = spec.range},
      knnql::Unparse(spec), why.str(),
      RuleRationale(Rewrite::kPushSelectBelowInnerJoinInput));
}

}  // namespace

Result<PhysicalPlan> Optimize(const Catalog& catalog, const QuerySpec& spec,
                              const PlannerOptions& options) {
  return std::visit(
      [&](const auto& concrete) -> Result<PhysicalPlan> {
        using T = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<T, TwoSelectsSpec>) {
          return PlanTwoSelects(catalog, concrete, options);
        } else if constexpr (std::is_same_v<T, SelectInnerJoinSpec>) {
          return PlanSelectInnerJoin(catalog, concrete, options);
        } else if constexpr (std::is_same_v<T, SelectOuterJoinSpec>) {
          return PlanSelectOuterJoin(catalog, concrete, options);
        } else if constexpr (std::is_same_v<T, UnchainedJoinsSpec>) {
          return PlanUnchained(catalog, concrete, options);
        } else if constexpr (std::is_same_v<T, RangeInnerJoinSpec>) {
          return PlanRangeInnerJoin(catalog, concrete, options);
        } else {
          return PlanChained(catalog, concrete, options);
        }
      },
      spec);
}

}  // namespace knnq
