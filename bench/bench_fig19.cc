// Figure 19: execution time of a query with a kNN-select on the inner
// relation of a kNN-join - Block-Marking vs the conceptually correct
// QEP, varying the number of points in the outer relation.
//
// Paper shape: Block-Marking wins by ~3 orders of magnitude, and the
// gap widens with |outer| because whole outer blocks are excluded while
// the naive plan computes a neighborhood per outer point.
//
// Block-Marking runs the paper's contour stop here, as in the figure.
// That stop is UNSOUND (it loses rows on known layouts, DESIGN.md
// note 3); plans run the exhaustive classification instead.

#include "benchmark/benchmark.h"
#include "bench/bench_common.h"
#include "src/core/select_inner_join.h"

namespace knnq::bench {
namespace {

constexpr std::size_t kJoinK = 10;
constexpr std::size_t kSelectK = 10;

SelectInnerJoinQuery MakeQuery(std::size_t outer_n) {
  const PointSet& outer = Berlin(outer_n, /*seed=*/1111, /*first_id=*/0);
  const PointSet& inner =
      Berlin(128000 * Scale(), /*seed=*/2222, /*first_id=*/10000000);
  return SelectInnerJoinQuery{
      .outer = &IndexOf(outer),
      .inner = &IndexOf(inner),
      .join_k = kJoinK,
      .focal = Point{.id = -1, .x = 15500, .y = 11800},
      .select_k = kSelectK,
  };
}

void BM_Fig19_ConceptualQEP(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  std::size_t pairs = 0;
  for (auto _ : state) {
    auto result = SelectInnerJoinNaive(query);
    pairs = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
  state.counters["result_pairs"] = static_cast<double>(pairs);
}

void BM_Fig19_BlockMarking(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  std::size_t pairs = 0;
  SelectInnerJoinStats stats;
  for (auto _ : state) {
    stats = SelectInnerJoinStats{};
    auto result =
        SelectInnerJoinBlockMarking(query, PreprocessMode::kContour, &stats);
    pairs = result->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
  state.counters["result_pairs"] = static_cast<double>(pairs);
  state.counters["contributing_blocks"] =
      static_cast<double>(stats.contributing_blocks);
}

BENCHMARK(BM_Fig19_ConceptualQEP)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(32000)
    ->Arg(64000)
    ->Arg(128000)
    ->Arg(256000);

BENCHMARK(BM_Fig19_BlockMarking)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(32000)
    ->Arg(64000)
    ->Arg(128000)
    ->Arg(256000);

}  // namespace
}  // namespace knnq::bench

BENCHMARK_MAIN();
