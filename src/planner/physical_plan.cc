#include "src/planner/physical_plan.h"

#include <sstream>

#include "src/common/stopwatch.h"

namespace knnq {

namespace {

/// Wraps an evaluator's Result<T> into a Result<QueryOutput>.
template <typename T>
Result<QueryOutput> Wrap(Result<T> result) {
  if (!result.ok()) return result.status();
  return QueryOutput(std::move(result.value()));
}

/// Calls the evaluator `algorithm` names on `query`, the variant
/// alternative Optimize() paired with it.
Result<QueryOutput> Evaluate(Algorithm algorithm, const PlanQuery& query,
                             bool swapped, ExecStats* stats,
                             NeighborhoodCache* cache) {
  switch (algorithm) {
    case Algorithm::kTwoSelectsNaive:
      return Wrap(TwoSelectsNaive(std::get<TwoSelectsQuery>(query),
                                  nullptr, stats, cache));
    case Algorithm::kTwoSelectsOptimized:
      return Wrap(TwoSelectsOptimized(std::get<TwoSelectsQuery>(query),
                                      nullptr, stats, cache));
    case Algorithm::kSelectInnerJoinNaive:
      return Wrap(SelectInnerJoinNaive(
          std::get<SelectInnerJoinQuery>(query), nullptr, stats, cache));
    case Algorithm::kSelectInnerJoinCounting:
      return Wrap(SelectInnerJoinCounting(
          std::get<SelectInnerJoinQuery>(query), nullptr, stats, cache));
    case Algorithm::kSelectInnerJoinBlockMarking:
      return Wrap(SelectInnerJoinBlockMarking(
          std::get<SelectInnerJoinQuery>(query), PreprocessMode::kExhaustive,
          nullptr, ProbePoint::kCenter, stats, cache));
    case Algorithm::kSelectOuterJoinPushed:
      return Wrap(SelectOuterJoinPushed(
          std::get<SelectOuterJoinQuery>(query), stats, cache));
    case Algorithm::kSelectOuterJoinLate:
      return Wrap(SelectOuterJoinLate(std::get<SelectOuterJoinQuery>(query),
                                      stats, cache));
    case Algorithm::kUnchainedNaive:
    case Algorithm::kUnchainedBlockMarking: {
      const auto& unchained = std::get<UnchainedJoinsQuery>(query);
      auto result =
          algorithm == Algorithm::kUnchainedNaive
              ? UnchainedJoinsNaive(unchained, stats, cache)
              : UnchainedJoinsBlockMarking(unchained, nullptr, stats, cache);
      if (!result.ok()) return result.status();
      TripletResult triplets = std::move(result.value());
      if (swapped) {
        for (Triplet& t : triplets) std::swap(t.a, t.c);
        Canonicalize(triplets);
      }
      return QueryOutput(std::move(triplets));
    }
    case Algorithm::kChainedJoinIntersection:
      return Wrap(ChainedJoinsJoinIntersection(
          std::get<ChainedJoinsQuery>(query), nullptr, stats, cache));
    case Algorithm::kChainedNestedJoin:
      return Wrap(ChainedJoinsNested(std::get<ChainedJoinsQuery>(query),
                                     /*cache_bc=*/true, nullptr, stats,
                                     cache));
    case Algorithm::kRangeInnerJoinNaive:
      return Wrap(RangeSelectInnerJoinNaive(
          std::get<RangeSelectInnerJoinQuery>(query), nullptr, stats,
          cache));
    case Algorithm::kRangeInnerJoinCounting:
      return Wrap(RangeSelectInnerJoinCounting(
          std::get<RangeSelectInnerJoinQuery>(query), nullptr, stats,
          cache));
    case Algorithm::kRangeInnerJoinBlockMarking:
      return Wrap(RangeSelectInnerJoinBlockMarking(
          std::get<RangeSelectInnerJoinQuery>(query),
          PreprocessMode::kExhaustive, nullptr, stats, cache));
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace

const char* ToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTwoSelectsNaive:
      return "TwoSelects(naive)";
    case Algorithm::kTwoSelectsOptimized:
      return "2-kNN-select";
    case Algorithm::kSelectInnerJoinNaive:
      return "SelectInnerJoin(naive)";
    case Algorithm::kSelectInnerJoinCounting:
      return "Counting";
    case Algorithm::kSelectInnerJoinBlockMarking:
      return "Block-Marking";
    case Algorithm::kSelectOuterJoinPushed:
      return "SelectOuterJoin(pushed)";
    case Algorithm::kSelectOuterJoinLate:
      return "SelectOuterJoin(late-filter)";
    case Algorithm::kUnchainedNaive:
      return "UnchainedJoins(independent)";
    case Algorithm::kUnchainedBlockMarking:
      return "UnchainedJoins(Block-Marking)";
    case Algorithm::kChainedJoinIntersection:
      return "ChainedJoins(join-intersection)";
    case Algorithm::kChainedNestedJoin:
      return "ChainedJoins(nested)";
    case Algorithm::kRangeInnerJoinNaive:
      return "RangeInnerJoin(naive)";
    case Algorithm::kRangeInnerJoinCounting:
      return "RangeInnerJoin(Counting)";
    case Algorithm::kRangeInnerJoinBlockMarking:
      return "RangeInnerJoin(Block-Marking)";
  }
  return "unknown";
}

std::string PhysicalPlan::Explain(const ExecStats* stats) const {
  std::ostringstream out;
  out << "Query: " << query_text_ << "\n";
  out << "Plan:  " << ToString(algorithm_);
  if (algorithm_ == Algorithm::kChainedNestedJoin) out << " [cached]";
  if (swapped_) out << " [joins reordered]";
  out << "\n";
  if (!rationale_.empty()) out << "Why:   " << rationale_ << "\n";
  if (!rule_note_.empty()) out << "Rule:  " << rule_note_ << "\n";
  if (stats != nullptr) out << "Stats: " << stats->ToString() << "\n";
  return out.str();
}

Result<QueryOutput> PhysicalPlan::Execute(ExecStats* stats,
                                          NeighborhoodCache* cache) const {
  ExecStats local;
  ExecStats* out = stats != nullptr ? stats : &local;
  *out = ExecStats{};
  Stopwatch timer;
  Result<QueryOutput> result =
      Evaluate(algorithm_, query_, swapped_, out, cache);
  out->wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace knnq
