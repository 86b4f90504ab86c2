// Planner tests: catalog management, legality rules, optimizer
// decisions, plan execution equivalence with direct core calls, and
// EXPLAIN output.

#include <optional>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "src/core/select_outer_join.h"
#include "src/planner/catalog.h"
#include "src/planner/optimizer.h"
#include "src/planner/rules.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeUniform;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        catalog_.AddRelation("uniform", MakeUniform(2000, 141, 0)).ok());
    ASSERT_TRUE(
        catalog_.AddRelation("city", MakeCity(2000, 142, 100000)).ok());
    ASSERT_TRUE(catalog_
                    .AddRelation("clustered",
                                 MakeClustered(2, 200, 143, 200000))
                    .ok());
    ASSERT_TRUE(
        catalog_.AddRelation("uniform2", MakeUniform(1500, 144, 300000))
            .ok());
  }

  Catalog catalog_;
};

TEST_F(PlannerTest, CatalogRejectsDuplicatesAndEmptyNames) {
  EXPECT_FALSE(catalog_.AddRelation("uniform", MakeUniform(10, 1)).ok());
  EXPECT_FALSE(catalog_.AddRelation("", MakeUniform(10, 1)).ok());
}

TEST_F(PlannerTest, CatalogLookups) {
  EXPECT_TRUE(catalog_.Has("city"));
  EXPECT_FALSE(catalog_.Has("nope"));
  EXPECT_FALSE(catalog_.Get("nope").ok());
  const auto relation = catalog_.Get("city");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ((*relation)->index->num_points(), 2000u);
  EXPECT_EQ(catalog_.Names().size(), 4u);
}

/// The coverage the planner measured for `relation`, read from the
/// "coverage(NAME)=X" its unchained plan's rationale records.
double PlannedCoverage(const std::string& explain,
                       const std::string& relation) {
  const std::string key = "coverage(" + relation + ")=";
  const std::size_t at = explain.find(key);
  EXPECT_NE(at, std::string::npos) << explain;
  return at == std::string::npos
             ? -1.0
             : std::stod(explain.substr(at + key.size()));
}

TEST_F(PlannerTest, PlannedCoverageDistinguishesShapes) {
  const UnchainedJoinsSpec spec{
      .a = "uniform", .b = "city", .c = "clustered", .k_ab = 2, .k_cb = 2};
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  const std::string explain = plan->Explain();
  EXPECT_GT(PlannedCoverage(explain, "uniform"),
            PlannedCoverage(explain, "clustered"))
      << explain;
}

TEST(RulesTest, LegalityMatchesThePaper) {
  EXPECT_TRUE(
      IsSemanticsPreserving(Rewrite::kPushSelectBelowOuterJoinInput));
  EXPECT_FALSE(
      IsSemanticsPreserving(Rewrite::kPushSelectBelowInnerJoinInput));
  EXPECT_FALSE(IsSemanticsPreserving(Rewrite::kCascadeUnchainedJoins));
  EXPECT_TRUE(IsSemanticsPreserving(Rewrite::kReorderChainedJoins));
  EXPECT_FALSE(IsSemanticsPreserving(Rewrite::kCascadeSelects));
  for (const Rewrite r :
       {Rewrite::kPushSelectBelowOuterJoinInput,
        Rewrite::kPushSelectBelowInnerJoinInput,
        Rewrite::kCascadeUnchainedJoins, Rewrite::kReorderChainedJoins,
        Rewrite::kCascadeSelects}) {
    EXPECT_FALSE(RuleRationale(r).empty());
  }
}

TEST_F(PlannerTest, TwoSelectsPicksOptimizedAlgorithm) {
  const TwoSelectsSpec spec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 10},
      .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = 100},
  };
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm(), Algorithm::kTwoSelectsOptimized);
  const auto output = plan->Execute();
  ASSERT_TRUE(output.ok());
  ASSERT_TRUE(std::holds_alternative<TwoSelectsResult>(*output));

  PlannerOptions naive;
  naive.force_naive = true;
  const auto baseline = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->algorithm(), Algorithm::kTwoSelectsNaive);
  const auto baseline_output = baseline->Execute();
  ASSERT_TRUE(baseline_output.ok());
  EXPECT_EQ(std::get<TwoSelectsResult>(*output),
            std::get<TwoSelectsResult>(*baseline_output));
}

TEST_F(PlannerTest, SelectInnerJoinSwitchesOnOuterCardinality) {
  const SelectInnerJoinSpec spec{
      .outer = "uniform",
      .inner = "city",
      .join_k = 3,
      .select = {.focal = {.id = -1, .x = 400, .y = 300}, .k = 6},
  };
  PlannerOptions small_cutoff;
  small_cutoff.counting_outer_cutoff = 100;  // uniform has 2000 points.
  const auto bm_plan = Optimize(catalog_, spec, small_cutoff);
  ASSERT_TRUE(bm_plan.ok());
  EXPECT_EQ(bm_plan->algorithm(), Algorithm::kSelectInnerJoinBlockMarking);

  PlannerOptions large_cutoff;
  large_cutoff.counting_outer_cutoff = 1000000;
  const auto counting_plan = Optimize(catalog_, spec, large_cutoff);
  ASSERT_TRUE(counting_plan.ok());
  EXPECT_EQ(counting_plan->algorithm(),
            Algorithm::kSelectInnerJoinCounting);

  // All three strategies agree on the answer.
  PlannerOptions naive;
  naive.force_naive = true;
  const auto naive_plan = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(naive_plan.ok());
  const auto r1 = bm_plan->Execute();
  const auto r2 = counting_plan->Execute();
  const auto r3 = naive_plan->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(std::get<JoinResult>(*r1), std::get<JoinResult>(*r2));
  EXPECT_EQ(std::get<JoinResult>(*r1), std::get<JoinResult>(*r3));
}

TEST_F(PlannerTest, SelectOuterJoinAlwaysPushes) {
  const SelectOuterJoinSpec spec{
      .outer = "city",
      .inner = "uniform",
      .join_k = 2,
      .select = {.focal = {.id = -1, .x = 600, .y = 350}, .k = 12},
  };
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm(), Algorithm::kSelectOuterJoinPushed);

  PlannerOptions naive;
  naive.force_naive = true;
  const auto late = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->algorithm(), Algorithm::kSelectOuterJoinLate);
  // Figure 3: both QEPs agree.
  EXPECT_EQ(std::get<JoinResult>(*plan->Execute()),
            std::get<JoinResult>(*late->Execute()));
}

TEST_F(PlannerTest, UnchainedStartsWithTheClusteredRelation) {
  const UnchainedJoinsSpec spec{
      .a = "uniform",
      .b = "city",
      .c = "clustered",  // Much smaller coverage than "uniform".
      .k_ab = 2,
      .k_cb = 2,
  };
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm(), Algorithm::kUnchainedBlockMarking);
  EXPECT_NE(plan->Explain().find("[joins reordered]"), std::string::npos)
      << "planner must start with the clustered side:\n" << plan->Explain();

  // Swapped execution must still report triplets in spec order: compare
  // with the naive plan.
  PlannerOptions naive;
  naive.force_naive = true;
  const auto baseline = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->algorithm(), Algorithm::kUnchainedNaive);
  EXPECT_EQ(std::get<TripletResult>(*plan->Execute()),
            std::get<TripletResult>(*baseline->Execute()));
}

TEST_F(PlannerTest, UnchainedUniformPairFallsBackToIndependentJoins) {
  const UnchainedJoinsSpec spec{
      .a = "uniform", .b = "city", .c = "uniform2", .k_ab = 2, .k_cb = 2};
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm(), Algorithm::kUnchainedNaive)
      << "both outers near-uniform: preprocessing would not pay off";
}

TEST_F(PlannerTest, ChainedPicksCachedNestedJoin) {
  const ChainedJoinsSpec spec{
      .a = "clustered", .b = "city", .c = "uniform", .k_ab = 2, .k_bc = 3};
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm(), Algorithm::kChainedNestedJoin);
  EXPECT_NE(plan->Explain().find("[cached]"), std::string::npos);

  PlannerOptions naive;
  naive.force_naive = true;
  const auto baseline = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->algorithm(), Algorithm::kChainedJoinIntersection);
  EXPECT_EQ(std::get<TripletResult>(*plan->Execute()),
            std::get<TripletResult>(*baseline->Execute()));
}

TEST_F(PlannerTest, RejectsUnknownRelationsAndZeroK) {
  const TwoSelectsSpec unknown{
      .relation = "nope",
      .s1 = {.focal = {}, .k = 1},
      .s2 = {.focal = {}, .k = 1},
  };
  EXPECT_EQ(Optimize(catalog_, unknown).status().code(),
            StatusCode::kNotFound);

  const TwoSelectsSpec zero_k{
      .relation = "city",
      .s1 = {.focal = {}, .k = 0},
      .s2 = {.focal = {}, .k = 1},
  };
  EXPECT_EQ(Optimize(catalog_, zero_k).status().code(),
            StatusCode::kInvalidArgument);

  const ChainedJoinsSpec bad_chain{
      .a = "city", .b = "missing", .c = "uniform", .k_ab = 1, .k_bc = 1};
  EXPECT_FALSE(Optimize(catalog_, bad_chain).ok());
}

TEST_F(PlannerTest, RangeInnerJoinPlansAndExecutes) {
  const RangeInnerJoinSpec spec{
      .outer = "uniform",
      .inner = "city",
      .join_k = 3,
      .range = BoundingBox(300, 250, 600, 500),
  };
  PlannerOptions small_cutoff;
  small_cutoff.counting_outer_cutoff = 100;
  const auto bm = Optimize(catalog_, spec, small_cutoff);
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->algorithm(), Algorithm::kRangeInnerJoinBlockMarking);

  PlannerOptions large_cutoff;
  large_cutoff.counting_outer_cutoff = 1000000;
  const auto counting = Optimize(catalog_, spec, large_cutoff);
  ASSERT_TRUE(counting.ok());
  EXPECT_EQ(counting->algorithm(), Algorithm::kRangeInnerJoinCounting);

  PlannerOptions naive;
  naive.force_naive = true;
  const auto baseline = Optimize(catalog_, spec, naive);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->algorithm(), Algorithm::kRangeInnerJoinNaive);

  const auto r1 = bm->Execute();
  const auto r2 = counting->Execute();
  const auto r3 = baseline->Execute();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(std::get<JoinResult>(*r1), std::get<JoinResult>(*r2));
  EXPECT_EQ(std::get<JoinResult>(*r1), std::get<JoinResult>(*r3));

  const RangeInnerJoinSpec empty_range{
      .outer = "uniform", .inner = "city", .join_k = 3,
      .range = BoundingBox()};
  EXPECT_FALSE(Optimize(catalog_, empty_range).ok());
}

TEST_F(PlannerTest, ExplainDescribesTheDecision) {
  const SelectInnerJoinSpec spec{
      .outer = "uniform",
      .inner = "city",
      .join_k = 3,
      .select = {.focal = {.id = -1, .x = 400, .y = 300}, .k = 6},
  };
  const auto plan = Optimize(catalog_, spec);
  ASSERT_TRUE(plan.ok());
  const std::string explain = plan->Explain();
  EXPECT_NE(explain.find("Query:"), std::string::npos);
  EXPECT_NE(explain.find("Plan:"), std::string::npos);
  EXPECT_NE(explain.find("Why:"), std::string::npos);
  EXPECT_NE(explain.find("Rule:"), std::string::npos);
  EXPECT_NE(explain.find("invalid"), std::string::npos)
      << "the inner-select rule must be cited:\n" << explain;
}

/// A spec and options under which Optimize picks `algorithm`, or
/// nullopt past the last enumerator. The switch has no default, so
/// with -Werror=switch a new Algorithm does not build until it has a
/// case here, and the test below then checks that a plan reaches it.
std::optional<std::pair<QuerySpec, PlannerOptions>> PlanFor(
    Algorithm algorithm) {
  PlannerOptions naive;
  naive.force_naive = true;
  PlannerOptions counting;
  counting.counting_outer_cutoff = 1000000;
  PlannerOptions block_marking;
  block_marking.counting_outer_cutoff = 100;  // uniform has 2000 points.
  const QuerySpec two_selects = TwoSelectsSpec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = 500, .y = 400}, .k = 10},
      .s2 = {.focal = {.id = -1, .x = 520, .y = 410}, .k = 100}};
  const QuerySpec select_inner = SelectInnerJoinSpec{
      .outer = "uniform",
      .inner = "city",
      .join_k = 3,
      .select = {.focal = {.id = -1, .x = 400, .y = 300}, .k = 6}};
  const QuerySpec select_outer = SelectOuterJoinSpec{
      .outer = "city",
      .inner = "uniform",
      .join_k = 2,
      .select = {.focal = {.id = -1, .x = 600, .y = 350}, .k = 12}};
  // Both outer relations near-uniform: independent joins.
  const QuerySpec unchained_uniform = UnchainedJoinsSpec{
      .a = "uniform", .b = "city", .c = "uniform2", .k_ab = 2, .k_cb = 2};
  const QuerySpec unchained_clustered = UnchainedJoinsSpec{
      .a = "uniform", .b = "city", .c = "clustered", .k_ab = 2, .k_cb = 2};
  const QuerySpec chained = ChainedJoinsSpec{
      .a = "clustered", .b = "city", .c = "uniform", .k_ab = 2, .k_bc = 3};
  const QuerySpec range_inner =
      RangeInnerJoinSpec{.outer = "uniform",
                         .inner = "city",
                         .join_k = 3,
                         .range = BoundingBox(300, 250, 600, 500)};
  switch (algorithm) {
    case Algorithm::kTwoSelectsNaive:
      return std::pair(two_selects, naive);
    case Algorithm::kTwoSelectsOptimized:
      return std::pair(two_selects, PlannerOptions{});
    case Algorithm::kSelectInnerJoinNaive:
      return std::pair(select_inner, naive);
    case Algorithm::kSelectInnerJoinCounting:
      return std::pair(select_inner, counting);
    case Algorithm::kSelectInnerJoinBlockMarking:
      return std::pair(select_inner, block_marking);
    case Algorithm::kSelectOuterJoinPushed:
      return std::pair(select_outer, PlannerOptions{});
    case Algorithm::kSelectOuterJoinLate:
      return std::pair(select_outer, naive);
    case Algorithm::kUnchainedNaive:
      return std::pair(unchained_uniform, PlannerOptions{});
    case Algorithm::kUnchainedBlockMarking:
      return std::pair(unchained_clustered, PlannerOptions{});
    case Algorithm::kChainedJoinIntersection:
      return std::pair(chained, naive);
    case Algorithm::kChainedNestedJoin:
      return std::pair(chained, PlannerOptions{});
    case Algorithm::kRangeInnerJoinNaive:
      return std::pair(range_inner, naive);
    case Algorithm::kRangeInnerJoinCounting:
      return std::pair(range_inner, counting);
    case Algorithm::kRangeInnerJoinBlockMarking:
      return std::pair(range_inner, block_marking);
  }
  return std::nullopt;
}

TEST_F(PlannerTest, EveryAlgorithmHasAPlanAndAnEvaluator) {
  PlannerOptions naive;
  naive.force_naive = true;
  std::size_t algorithms = 0;
  for (int value = 0;; ++value) {
    const auto algorithm = static_cast<Algorithm>(value);
    const auto planned = PlanFor(algorithm);
    if (!planned.has_value()) break;
    ++algorithms;
    SCOPED_TRACE(ToString(algorithm));
    const auto& [spec, options] = *planned;
    const auto plan = Optimize(catalog_, spec, options);
    const auto baseline = Optimize(catalog_, spec, naive);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(plan->algorithm(), algorithm);

    const auto rows = plan->Execute();
    const auto expected = baseline->Execute();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(*rows == *expected);
    EXPECT_FALSE(std::visit([](const auto& r) { return r.empty(); }, *rows))
        << "an empty answer would make the comparison vacuous";
  }
  EXPECT_EQ(algorithms, 14u);
}

TEST_F(PlannerTest, ExplainTagsNoPlanWithTheContour) {
  // Every Block-Marking plan classifies every outer block (the
  // contour stop is unsound, DESIGN.md note 3), so no plan line carries
  // a [contour] tag.
  for (const auto& [algorithm, plan_line] :
       {std::pair(Algorithm::kSelectInnerJoinBlockMarking,
                  "Plan:  Block-Marking"),
        std::pair(Algorithm::kRangeInnerJoinBlockMarking,
                  "Plan:  RangeInnerJoin(Block-Marking)"),
        std::pair(Algorithm::kUnchainedBlockMarking,
                  "Plan:  UnchainedJoins(Block-Marking) [joins reordered]")}) {
    const auto [spec, options] = PlanFor(algorithm).value();
    const auto plan = Optimize(catalog_, spec, options);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->Explain().find("\n" + std::string(plan_line) + "\n"),
              std::string::npos)
        << plan->Explain();
  }
}

// Figure 3's equivalence, directly on the core operators.
TEST(SelectOuterJoinTest, PushedEqualsLateFilter) {
  const PointSet outer = MakeCity(800, 151, 0);
  const PointSet inner = MakeUniform(600, 152, 100000);
  const auto outer_index = testing::MakeIndex(outer);
  const auto inner_index = testing::MakeIndex(inner);
  for (const std::size_t select_k : {1u, 5u, 50u}) {
    const SelectOuterJoinQuery query{
        .outer = outer_index.get(),
        .inner = inner_index.get(),
        .join_k = 3,
        .focal = Point{.id = -1, .x = 321, .y = 432},
        .select_k = select_k,
    };
    const auto pushed = SelectOuterJoinPushed(query);
    const auto late = SelectOuterJoinLate(query);
    ASSERT_TRUE(pushed.ok());
    ASSERT_TRUE(late.ok());
    EXPECT_EQ(*pushed, *late) << "select_k=" << select_k;
    EXPECT_EQ(pushed->size(), std::min<std::size_t>(select_k, outer.size()) * 3);
  }
}

TEST(SelectOuterJoinTest, RejectsInvalidQueries) {
  const auto index = testing::MakeIndex(MakeUniform(10, 153));
  SelectOuterJoinQuery query{.outer = index.get(),
                             .inner = index.get(),
                             .join_k = 0,
                             .focal = {},
                             .select_k = 1};
  EXPECT_FALSE(SelectOuterJoinPushed(query).ok());
  EXPECT_FALSE(SelectOuterJoinLate(query).ok());
}

}  // namespace
}  // namespace knnq
