// Figure 20: Counting vs Block-Marking when the OUTER relation is
// small/low-density.
//
// Paper shape: Counting wins - Block-Marking's per-block preprocessing
// (a neighborhood per block center) does not pay off when few points
// share each block. Counting's own per-block step, one MAXDIST scan
// per outer block that settles the block when it can (DESIGN.md
// note 6), computes no neighborhood.

#include "benchmark/benchmark.h"
#include "bench/bench_common.h"
#include "src/core/select_inner_join.h"

namespace knnq::bench {
namespace {

SelectInnerJoinQuery MakeQuery(std::size_t outer_n) {
  const PointSet& outer = Berlin(outer_n, /*seed=*/1212, /*first_id=*/0);
  const PointSet& inner =
      Berlin(128000 * Scale(), /*seed=*/2323, /*first_id=*/10000000);
  return SelectInnerJoinQuery{
      .outer = &IndexOf(outer),
      .inner = &IndexOf(inner),
      .join_k = 10,
      .focal = Point{.id = -1, .x = 15500, .y = 11800},
      .select_k = 10,
  };
}

void BM_Fig20_Counting(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  for (auto _ : state) {
    auto result = SelectInnerJoinCounting(query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
}

void BM_Fig20_BlockMarking(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  for (auto _ : state) {
    auto result = SelectInnerJoinBlockMarking(query);
    benchmark::DoNotOptimize(result);
  }
  state.counters["outer_points"] =
      static_cast<double>(query.outer->num_points());
}

BENCHMARK(BM_Fig20_Counting)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000);

BENCHMARK(BM_Fig20_BlockMarking)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000);

}  // namespace
}  // namespace knnq::bench

BENCHMARK_MAIN();
