// Ablation: Procedure 3's contour early-stop vs exhaustive
// preprocessing of the outer blocks. The contour rule probes far fewer
// blocks, but it is UNSOUND: its stop needs the Non-Contributing run to
// close a ring, and empty space has no block to test, so it loses rows
// on known layouts (DESIGN.md note 3). Plans run the exhaustive mode;
// this bench measures what the unchecked stop would save.

#include "benchmark/benchmark.h"
#include "bench/bench_common.h"
#include "src/core/select_inner_join.h"

namespace knnq::bench {
namespace {

SelectInnerJoinQuery MakeQuery(std::size_t outer_n) {
  const PointSet& outer = Berlin(outer_n, /*seed=*/1011, /*first_id=*/0);
  const PointSet& inner =
      Berlin(128000 * Scale(), /*seed=*/1022, /*first_id=*/10000000);
  return SelectInnerJoinQuery{
      .outer = &IndexOf(outer),
      .inner = &IndexOf(inner),
      .join_k = 10,
      .focal = Point{.id = -1, .x = 15500, .y = 11800},
      .select_k = 10,
  };
}

void BM_AblationContour_Contour(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  SelectInnerJoinStats stats;
  for (auto _ : state) {
    stats = SelectInnerJoinStats{};
    auto result =
        SelectInnerJoinBlockMarking(query, PreprocessMode::kContour, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["blocks_probed"] =
      static_cast<double>(stats.blocks_preprocessed);
  state.counters["outer_blocks"] =
      static_cast<double>(query.outer->num_blocks());
}

void BM_AblationContour_Exhaustive(benchmark::State& state) {
  const auto query = MakeQuery(static_cast<std::size_t>(state.range(0)) *
                               Scale());
  SelectInnerJoinStats stats;
  for (auto _ : state) {
    stats = SelectInnerJoinStats{};
    auto result = SelectInnerJoinBlockMarking(
        query, PreprocessMode::kExhaustive, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["blocks_probed"] =
      static_cast<double>(stats.blocks_preprocessed);
  state.counters["outer_blocks"] =
      static_cast<double>(query.outer->num_blocks());
}

BENCHMARK(BM_AblationContour_Contour)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->Arg(64000)
    ->Arg(256000);

BENCHMARK(BM_AblationContour_Exhaustive)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->Arg(64000)
    ->Arg(256000);

}  // namespace
}  // namespace knnq::bench

BENCHMARK_MAIN();
