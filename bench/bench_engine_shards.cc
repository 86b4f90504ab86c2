// Sharded scale-out throughput: mixed-workload statement throughput
// at 4 concurrent query threads with a concurrent writer, at
// shards = 1 versus shards = 8.
//
// The single-shard engine serializes writers against readers on one
// shared_mutex, and glibc's reader-preferring rwlock admits new
// readers while a writer waits — under 4 threads of continuous query
// traffic the writer is starved nearly completely, so almost no DML
// commits while the engine serves. The sharded engine publishes
// writes copy-on-write: the writer clones only the touched shards,
// commits with a pointer swap, and never waits behind a query, so the
// same write stream flows at full rate while the readers run
// lock-free against pinned snapshots. The gated number is the
// mixed-workload throughput ratio
//
//   shard_speedup_t4 = [(queries + updates) / wall] at shards=8
//                    / [(queries + updates) / wall] at shards=1
//
// measured over a fixed read window: 4 threads each replay the
// six-shape query workload once while one writer applies mutation
// batches to the "clustered" relation for as long as the window lasts
// (budget-capped). Both sides offer the identical workload; what
// differs is how much of the write stream the engine admits.
// tools/check_bench.py requires >= 1.4x, a nonzero shards_pruned
// total (the scatter-gather bound must actually skip shards), and
// zero query/DML errors. Read-only rows at both shard counts are
// recorded for the cross-run normalized comparison; the mixed rows
// take the churn/ prefix, which check_bench.py excludes from
// row-by-row gating (their throughput mixes query and writer
// admission and is noisy run to run).
//
// Writes BENCH_engine_shards.json (override with KNNQ_BENCH_JSON).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/engine/query_engine.h"

namespace knnq::bench {
namespace {

constexpr std::size_t kBatchSize = 264;  // 44 rounds x 6 shapes.
constexpr std::size_t kReaders = 4;
constexpr std::size_t kShardsHigh = 8;
constexpr std::size_t kOpsPerBatch = 16;
/// Writer budget cap: bounds the run even on a very fast machine.
constexpr std::size_t kMaxWriterBatches = 20000;

Catalog MakeCatalog() {
  Catalog catalog;
  const std::size_t n = 4000 * Scale();
  Status s = catalog.AddRelation("uniform",
                                 Uniform(n, /*seed=*/7001, /*first_id=*/0));
  KNNQ_CHECK_MSG(s.ok(), s.ToString().c_str());
  s = catalog.AddRelation(
      "city", Berlin(n, /*seed=*/7002, /*first_id=*/10000000));
  KNNQ_CHECK_MSG(s.ok(), s.ToString().c_str());
  s = catalog.AddRelation(
      "clustered",
      Clustered(8, n / 16, /*seed=*/7003, /*first_id=*/20000000));
  KNNQ_CHECK_MSG(s.ok(), s.ToString().c_str());
  return catalog;
}

/// One round of the six query shapes parameterized by (dx, dy, k) —
/// the bench_engine_batch mix.
void AppendRound(std::vector<QuerySpec>& specs, double dx, double dy,
                 std::size_t k) {
  specs.push_back(TwoSelectsSpec{
      .relation = "city",
      .s1 = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k},
      .s2 = {.focal = {.id = -1, .x = dx + 400, .y = dy + 300},
             .k = k + 8},
  });
  specs.push_back(SelectInnerJoinSpec{
      .outer = "uniform",
      .inner = "city",
      .join_k = k,
      .select = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k + 4},
  });
  specs.push_back(SelectOuterJoinSpec{
      .outer = "city",
      .inner = "uniform",
      .join_k = 1 + k % 4,
      .select = {.focal = {.id = -1, .x = dy, .y = dx / 2}, .k = 8 + k},
  });
  specs.push_back(UnchainedJoinsSpec{
      .a = "uniform",
      .b = "city",
      .c = "clustered",
      .k_ab = 1 + k % 3,
      .k_cb = 1 + (k + 1) % 3,
  });
  specs.push_back(ChainedJoinsSpec{
      .a = "clustered",
      .b = "city",
      .c = "uniform",
      .k_ab = 1 + k % 3,
      .k_bc = 1 + (k + 2) % 3,
  });
  specs.push_back(RangeInnerJoinSpec{
      .outer = "uniform",
      .inner = "city",
      .join_k = k,
      .range = BoundingBox(dx, dy, dx + 1500, dy + 1200),
  });
}

const std::vector<QuerySpec>& Specs() {
  static auto& specs = *new std::vector<QuerySpec>([] {
    std::vector<QuerySpec> s;
    s.reserve(kBatchSize);
    const BoundingBox frame = Frame();
    for (std::size_t i = 0; s.size() < kBatchSize; ++i) {
      AppendRound(s, frame.min_x() + static_cast<double>((i * 997) % 28000),
                  frame.min_y() + static_cast<double>((i * 613) % 22000),
                  1 + i % 8);
    }
    return s;
  }());
  return specs;
}

std::unique_ptr<QueryEngine> MakeEngine(std::size_t shards) {
  EngineOptions options;
  options.num_threads = kReaders;
  options.index_options.shards = shards;
  return std::make_unique<QueryEngine>(MakeCatalog(), options);
}

struct RunRecord {
  std::size_t shards = 1;
  double wall_seconds = 0.0;
  std::size_t queries = 0;
  std::size_t updates = 0;
  std::size_t errors = 0;
  std::size_t shards_pruned = 0;

  /// Statements (queries + committed updates) per second: the mixed
  /// throughput the summary ratio gates. Equals plain query
  /// throughput for the read-only rows.
  double qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(queries + updates) / wall_seconds
               : 0.0;
  }
};

std::map<std::string, RunRecord>& Records() {
  static auto& records = *new std::map<std::string, RunRecord>();
  return records;
}

/// The read window: kReaders threads each replay the workload once,
/// round-robin from staggered offsets. Returns the folded counts.
RunRecord DriveReaders(const QueryEngine& engine) {
  const std::vector<QuerySpec>& specs = Specs();
  std::mutex fold_mu;
  RunRecord folded;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      RunRecord local;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const EngineResult result =
            engine.Run(specs[(r * 67 + i) % specs.size()]);
        if (!result.ok()) ++local.errors;
        ++local.queries;
        local.shards_pruned += result.stats.shards_pruned;
      }
      std::lock_guard<std::mutex> lock(fold_mu);
      folded.queries += local.queries;
      folded.errors += local.errors;
      folded.shards_pruned += local.shards_pruned;
    });
  }
  for (std::thread& t : readers) t.join();
  return folded;
}

/// The write stream: deterministic insert/erase batches against
/// "clustered", applied until `stop` flips or the budget runs out.
/// Inserts and erases alternate once enough ids accumulate, keeping
/// the relation's cardinality bounded. `committed` counts ops whose
/// batch committed; `errors` counts failed batches.
void RunWriter(QueryEngine& engine, const std::atomic<bool>& stop,
               std::atomic<std::size_t>& committed,
               std::atomic<std::size_t>& errors) {
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  const auto next_rand = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 11;
  };
  PointId next_id = 50'000'000;
  std::vector<PointId> live;
  const BoundingBox frame = Frame();
  for (std::size_t b = 0;
       b < kMaxWriterBatches && !stop.load(std::memory_order_relaxed);
       ++b) {
    std::vector<MutationOp> ops;
    ops.reserve(kOpsPerBatch);
    for (std::size_t u = 0; u < kOpsPerBatch; ++u) {
      if (live.size() >= 256 && (live.size() + u) % 2 == 0) {
        const std::size_t victim = next_rand() % live.size();
        ops.push_back(MutationOp::Erase(live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        // next_rand() yields 53 bits; scaling by 2^-53 gives a
        // uniform [0,1) without the modulo bias (and low-value
        // clustering) of `% width`.
        const double x =
            frame.min_x() +
            frame.width() * static_cast<double>(next_rand()) *
                0x1.0p-53;
        const double y =
            frame.min_y() +
            frame.height() * static_cast<double>(next_rand()) *
                0x1.0p-53;
        ops.push_back(MutationOp::Insert(x, y, next_id));
        live.push_back(next_id++);
      }
    }
    const EngineResult applied =
        engine.ExecuteDml(DmlRequest::MutateOps("clustered", ops));
    if (applied.ok()) {
      committed.fetch_add(ops.size(), std::memory_order_relaxed);
    } else {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void BM_ShardsReadOnly(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::unique_ptr<QueryEngine> engine = MakeEngine(shards);
  RunRecord record;
  record.shards = shards;
  for (auto _ : state) {
    Stopwatch timer;
    const RunRecord pass = DriveReaders(*engine);
    record.wall_seconds += timer.ElapsedSeconds();
    record.queries += pass.queries;
    record.errors += pass.errors;
    record.shards_pruned += pass.shards_pruned;
  }
  Records()["readonly/shards" + std::to_string(shards) + "/t4"] = record;
  state.counters["qps"] = record.qps();
  state.counters["shards_pruned"] =
      static_cast<double>(record.shards_pruned);
}

void BM_ShardsMixed(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  RunRecord record;
  record.shards = shards;
  for (auto _ : state) {
    // Fresh engine per iteration: the write stream mutates "clustered".
    std::unique_ptr<QueryEngine> engine = MakeEngine(shards);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> committed{0};
    std::atomic<std::size_t> write_errors{0};
    Stopwatch timer;
    std::thread writer([&] {
      RunWriter(*engine, stop, committed, write_errors);
    });
    const RunRecord pass = DriveReaders(*engine);
    // The read window is the clock: updates count only if committed
    // before the last query finished.
    record.wall_seconds += timer.ElapsedSeconds();
    record.updates += committed.load(std::memory_order_relaxed);
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    record.queries += pass.queries;
    record.errors += pass.errors + write_errors.load();
    record.shards_pruned += pass.shards_pruned;
  }
  Records()["churn/mixed/shards" + std::to_string(shards) + "/t4"] = record;
  state.counters["qps"] = record.qps();
  state.counters["updates"] = static_cast<double>(record.updates);
  state.counters["errors"] = static_cast<double>(record.errors);
  state.counters["shards_pruned"] =
      static_cast<double>(record.shards_pruned);
}

BENCHMARK(BM_ShardsReadOnly)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(kShardsHigh);

BENCHMARK(BM_ShardsMixed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(kShardsHigh);

}  // namespace

/// Writes the rows plus the gated summary ratios.
void WriteBenchJson() {
  const char* env = std::getenv("KNNQ_BENCH_JSON");
  const std::string path =
      env != nullptr ? env : "BENCH_engine_shards.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }

  std::fprintf(out, "{\n  \"bench\": \"shards\",\n");
  std::fprintf(out, "  \"scale\": %zu,\n", Scale());
  std::fprintf(out, "  \"reference\": \"readonly/shards1/t4\",\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  bool first = true;
  std::size_t total_errors = 0;
  std::size_t total_pruned = 0;
  for (const auto& [name, r] : Records()) {
    std::fprintf(
        out,
        "%s    {\"name\": \"%s\", \"shards\": %zu, \"wall_seconds\": "
        "%.6f, \"queries\": %zu, \"updates\": %zu, \"qps\": %.2f, "
        "\"errors\": %zu, \"shards_pruned\": %zu}",
        first ? "" : ",\n", name.c_str(), r.shards, r.wall_seconds,
        r.queries, r.updates, r.qps(), r.errors, r.shards_pruned);
    first = false;
    total_errors += r.errors;
    total_pruned += r.shards_pruned;
  }
  std::fprintf(out, "\n  ],\n");

  const auto qps_of = [](const std::string& name) {
    const auto it = Records().find(name);
    return it == Records().end() ? 0.0 : it->second.qps();
  };
  const double storm1 = qps_of("churn/mixed/shards1/t4");
  const double storm8 =
      qps_of("churn/mixed/shards" + std::to_string(kShardsHigh) + "/t4");
  const double speedup = storm1 > 0.0 ? storm8 / storm1 : 0.0;
  std::fprintf(out,
               "  \"summary\": {\"shard_speedup_t4\": %.3f, "
               "\"shards_pruned\": %zu, \"total_errors\": %zu}\n}\n",
               speedup, total_pruned, total_errors);
  std::fclose(out);
  std::printf("wrote %s (shard speedup t4=%.2fx, pruned=%zu, "
              "errors=%zu)\n",
              path.c_str(), speedup, total_pruned, total_errors);
}

}  // namespace knnq::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  knnq::bench::WriteBenchJson();
  return 0;
}
