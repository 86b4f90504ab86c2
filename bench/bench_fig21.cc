// Figure 21: Counting vs Block-Marking when the OUTER relation is
// large/high-density.
//
// Paper shape: Block-Marking wins - whole blocks of the dense outer
// relation are excluded at per-block cost (this bench classifies every
// block, as plans do: the paper's contour stop is unsound, DESIGN.md
// note 3). Counting pays a MAXDIST block scan for every
// outer block (DESIGN.md note 6), a scan for every point of each block
// that one cannot settle, and a neighborhood for every point it does
// not prune.

#include "benchmark/benchmark.h"
#include "bench/bench_common.h"
#include "src/core/select_inner_join.h"

namespace knnq::bench {
namespace {

SelectInnerJoinQuery MakeQuery(std::size_t outer_n) {
  const PointSet& outer = Berlin(outer_n, /*seed=*/1313, /*first_id=*/0);
  const PointSet& inner =
      Berlin(128000 * Scale(), /*seed=*/2424, /*first_id=*/10000000);
  return SelectInnerJoinQuery{
      .outer = &IndexOf(outer),
      .inner = &IndexOf(inner),
      .join_k = 10,
      .focal = Point{.id = -1, .x = 15500, .y = 11800},
      .select_k = 10,
  };
}

void BM_Fig21_Counting(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  for (auto _ : state) {
    auto result = SelectInnerJoinCounting(query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
}

void BM_Fig21_BlockMarking(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  for (auto _ : state) {
    auto result = SelectInnerJoinBlockMarking(query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
}

BENCHMARK(BM_Fig21_Counting)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(128000)
    ->Arg(256000)
    ->Arg(512000)
    ->Arg(1024000);

BENCHMARK(BM_Fig21_BlockMarking)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(128000)
    ->Arg(256000)
    ->Arg(512000)
    ->Arg(1024000);

}  // namespace
}  // namespace knnq::bench

BENCHMARK_MAIN();
