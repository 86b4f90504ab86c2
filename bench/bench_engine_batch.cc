// Engine batch throughput: RunBatch of a mixed bag of all six query
// shapes over worker pools of increasing size, against serial Run -
// now under two workload skews and with/without the engine's shared
// NeighborhoodCache:
//
//   * uniform - every query has distinct parameters; the cache can
//     only reuse join probes that happen to collide. Expected: cached
//     within noise of uncached (the no-regression guard).
//   * skewed  - queries drawn from a small pool of hot templates
//     (repeated focal points, repeated join specs), the shape of real
//     serving traffic. Expected: the cache converts repeated getkNN
//     probes into hits and wins throughput outright.
//
// Besides the usual console counters, the binary writes a
// machine-readable summary to BENCH_engine_batch.json (override with
// KNNQ_BENCH_JSON) that CI archives and gates with
// tools/check_bench.py: per-run throughput, cache hit rates, and the
// skewed cached-vs-uncached speedup.
//
// The first iteration of every cached configuration also asserts that
// the cached batch output is byte-identical to uncached serial
// execution - the equivalence the engine guarantees.
//
// Workloads are textual: --workload FILE / --workload-skewed FILE
// replace the generated uniform / skewed batches with the statements
// of a .knnql script (parsed against the bench catalog:  relations
// "uniform", "city", "clustered"), so benchmark mixes are committable
// and diffable. The committed files under bench/workloads/ are the
// generators' exact output; --dump-workloads DIR regenerates them.
//
// Churn mode measures the query/update workload class: the skewed
// workload replays while QueryEngine::Mutate interleaves insert/delete
// batches against the "clustered" relation (so per-relation cache
// invalidation keeps "uniform" and "city" neighborhoods hot). The
// update:query ratio defaults to 1:4 and is configurable with
// --churn U:Q. The JSON summary's churn_read_ratio_t4 (churn qps over
// read-only qps at the same config) is gated by tools/check_bench.py
// at >= 0.5x.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/data/dataset_io.h"
#include "src/engine/neighborhood_cache.h"
#include "src/engine/query_engine.h"
#include "src/lang/unparser.h"
#include "src/obs/trace.h"
#include "src/server/server.h"

namespace knnq::bench {
namespace {

constexpr std::size_t kBatchSize = 264;  // 44 rounds x 6 shapes >= 256.
constexpr std::size_t kCacheMb = 64;

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

/// One round of the six query shapes parameterized by (dx, dy, k).
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

/// Every round gets distinct parameters: the cache's worst case.
std::vector<QuerySpec> GeneratedUniformSpecs() {
  std::vector<QuerySpec> specs;
  specs.reserve(kBatchSize);
  const BoundingBox frame = Frame();
  for (std::size_t i = 0; specs.size() < kBatchSize; ++i) {
    AppendRound(specs,
                frame.min_x() + static_cast<double>((i * 997) % 28000),
                frame.min_y() + static_cast<double>((i * 613) % 22000),
                1 + i % 8);
  }
  return specs;
}

/// Rounds cycle through a pool of 4 hot parameter triples: the same
/// focal points and k values recur all batch long, the way real
/// serving traffic concentrates on hot spots.
std::vector<QuerySpec> GeneratedSkewedSpecs() {
  constexpr std::size_t kHotSpots = 4;
  std::vector<QuerySpec> specs;
  specs.reserve(kBatchSize);
  const BoundingBox frame = Frame();
  for (std::size_t i = 0; specs.size() < kBatchSize; ++i) {
    const std::size_t hot = i % kHotSpots;
    AppendRound(specs,
                frame.min_x() + static_cast<double>(4000 + hot * 5600),
                frame.min_y() + static_cast<double>(3000 + hot * 4400),
                2 + hot);
  }
  return specs;
}

/// Memoized engine per (pool size, cache budget) - index construction
/// is not what this bench measures, and keeping the cached engines
/// alive measures the steady-state hit rate a serving process reaches.
const QueryEngine& EngineWith(std::size_t threads, std::size_t cache_mb) {
  using Key = std::pair<std::size_t, std::size_t>;
  static auto& engines = *new std::map<Key, std::unique_ptr<QueryEngine>>();
  auto& slot = engines[{threads, cache_mb}];
  if (slot == nullptr) {
    EngineOptions options;
    options.num_threads = threads;
    options.cache_mb = cache_mb;
    slot = std::make_unique<QueryEngine>(MakeCatalog(), options);
  }
  return *slot;
}

/// --workload / --workload-skewed override paths, set by main() before
/// the benchmarks run; empty means "use the generated batch".
std::string& WorkloadPath(const char* kind) {
  static auto& paths = *new std::map<std::string, std::string>();
  return paths[kind];
}

/// Parses a committed .knnql workload against the bench catalog.
std::vector<QuerySpec> LoadWorkload(const std::string& path) {
  auto text = ReadTextFile(path);
  KNNQ_CHECK_MSG(text.ok(), text.status().ToString().c_str());
  auto specs =
      BindQueryWorkload(*text, EngineWith(1, /*cache_mb=*/0).catalog());
  KNNQ_CHECK_MSG(specs.ok(), specs.status().ToString().c_str());
  return std::move(specs.value());
}

std::vector<QuerySpec> UniformSpecs() {
  const std::string& path = WorkloadPath("uniform");
  return path.empty() ? GeneratedUniformSpecs() : LoadWorkload(path);
}

std::vector<QuerySpec> SkewedSpecs() {
  const std::string& path = WorkloadPath("skewed");
  return path.empty() ? GeneratedSkewedSpecs() : LoadWorkload(path);
}

/// Writes the generated batches as canonical KNNQL, one statement per
/// line — the source of the committed bench/workloads/*.knnql files.
void DumpWorkloads(const std::string& dir) {
  const auto dump = [&](const char* name,
                        const std::vector<QuerySpec>& specs) {
    const std::string path = dir + "/engine_batch_" + name + ".knnql";
    std::FILE* out = std::fopen(path.c_str(), "w");
    KNNQ_CHECK_MSG(out != nullptr, path.c_str());
    std::fprintf(out,
                 "-- bench_engine_batch %s workload (%zu queries).\n"
                 "-- Generated by: bench_engine_batch --dump-workloads\n"
                 "-- relations: uniform city clustered\n",
                 name, specs.size());
    for (const QuerySpec& spec : specs) {
      std::fprintf(out, "%s\n", knnql::Unparse(spec).c_str());
    }
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  };
  dump("uniform", GeneratedUniformSpecs());
  dump("skewed", GeneratedSkewedSpecs());
}

/// Byte-identical equivalence: `engine`'s batch against UNCACHED serial
/// execution. Run once per (engine config, workload).
void CheckBatchEqualsUncachedSerial(const QueryEngine& engine,
                                    const std::vector<QuerySpec>& specs) {
  const QueryEngine& reference = EngineWith(1, /*cache_mb=*/0);
  const std::vector<EngineResult> batch = engine.RunBatch(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const EngineResult serial = reference.Run(specs[i]);
    KNNQ_CHECK_MSG(batch[i].ok() && serial.ok(),
                   "engine bench query failed");
    KNNQ_CHECK_MSG(batch[i].output == serial.output,
                   "batch result differs from uncached serial execution");
  }
}

/// Churn configuration: updates applied per ChurnQueries() queries.
/// Set by --churn U:Q before the benchmarks run.
std::size_t& ChurnUpdates() {
  static std::size_t updates = 1;
  return updates;
}
std::size_t& ChurnQueries() {
  static std::size_t queries = 4;
  return queries;
}

/// One row of BENCH_engine_batch.json.
struct RunRecord {
  std::size_t threads = 1;
  std::string workload;
  std::size_t cache_mb = 0;
  double wall_seconds = 0.0;
  std::size_t queries = 0;
  /// Churn rows only: mutation ops applied while the queries ran.
  std::size_t updates = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_bytes = 0;

  double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(queries) / wall_seconds
                              : 0.0;
  }
  double hit_rate() const {
    const std::size_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) / total;
  }
};

/// name -> record; re-running a benchmark overwrites its row.
std::map<std::string, RunRecord>& Records() {
  static auto& records = *new std::map<std::string, RunRecord>();
  return records;
}

/// Shared body of every batch benchmark: measure RunBatch wall time,
/// fold ExecStats, record a JSON row and the console counters.
void RunBatchBenchmark(benchmark::State& state, const std::string& name,
                       const char* workload, std::size_t threads,
                       std::size_t cache_mb,
                       const std::vector<QuerySpec>& specs) {
  const QueryEngine& engine = EngineWith(threads, cache_mb);
  if (cache_mb > 0) {
    CheckBatchEqualsUncachedSerial(engine, specs);
    // The check warmed the cache; measure from cold so the reported
    // hit rate and speedup reflect one batch, not prior traffic.
    engine.neighborhood_cache()->Clear();
  }

  ExecStats total;
  double wall = 0.0;
  std::size_t ran = 0;
  for (auto _ : state) {
    total = ExecStats{};
    Stopwatch timer;
    std::vector<EngineResult> results = engine.RunBatch(specs);
    wall += timer.ElapsedSeconds();
    ran += specs.size();
    for (const EngineResult& result : results) total.Merge(result.stats);
    benchmark::DoNotOptimize(results);
  }

  RunRecord record;
  record.threads = threads;
  record.workload = workload;
  record.cache_mb = cache_mb;
  record.wall_seconds = wall;
  record.queries = ran;
  record.cache_hits = total.cache_hits;
  record.cache_misses = total.cache_misses;
  record.cache_bytes = total.cache_bytes;
  Records()[name] = record;

  state.counters["queries"] = static_cast<double>(specs.size());
  state.counters["pool_threads"] = static_cast<double>(threads);
  state.counters["qps"] = record.qps();
  state.counters["cache_hit_rate"] = record.hit_rate();
  ReportExecStats(state, total);
}

/// Churn body: replay the skewed workload in groups of ChurnQueries()
/// queries with ChurnUpdates() mutation ops applied between groups.
/// Uses a dedicated engine (NOT the memoized EngineWith pool): churn
/// mutates relations, and the shared engines must stay pristine for
/// the read-only benchmarks and their byte-identical checks.
void RunChurnBenchmark(benchmark::State& state, const std::string& name,
                       std::size_t threads, std::size_t cache_mb) {
  EngineOptions options;
  options.num_threads = threads;
  options.cache_mb = cache_mb;
  QueryEngine engine(MakeCatalog(), options);
  const std::vector<QuerySpec> specs = SkewedSpecs();

  ExecStats total;
  double wall = 0.0;
  std::size_t ran = 0;
  std::size_t updates = 0;
  // Deterministic mutation stream: inserts draw fresh ids and frame
  // coordinates from an LCG; once enough points accumulated, every
  // batch erases as many as it inserts, so the relation's cardinality
  // stays put across iterations.
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  const auto next_rand = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 11;
  };
  PointId next_id = 50'000'000;
  std::vector<PointId> live;
  const BoundingBox frame = Frame();

  for (auto _ : state) {
    total = ExecStats{};
    Stopwatch timer;
    std::size_t cursor = 0;
    while (cursor < specs.size()) {
      const std::size_t group =
          std::min(ChurnQueries(), specs.size() - cursor);
      const std::vector<QuerySpec> batch(
          specs.begin() + static_cast<std::ptrdiff_t>(cursor),
          specs.begin() + static_cast<std::ptrdiff_t>(cursor + group));
      std::vector<EngineResult> results = engine.RunBatch(batch);
      for (const EngineResult& result : results) {
        KNNQ_CHECK_MSG(result.ok(), "churn query failed");
        total.Merge(result.stats);
      }
      benchmark::DoNotOptimize(results);
      cursor += group;

      std::vector<MutationOp> ops;
      ops.reserve(ChurnUpdates());
      for (std::size_t u = 0; u < ChurnUpdates(); ++u) {
        if (live.size() >= 256 && (live.size() + u) % 2 == 0) {
          const std::size_t victim = next_rand() % live.size();
          ops.push_back(MutationOp::Erase(live[victim]));
          live.erase(live.begin() +
                     static_cast<std::ptrdiff_t>(victim));
        } else {
          // next_rand() yields 53 bits; scaling by 2^-53 gives a
          // uniform [0,1) without the modulo bias (and low-value
          // clustering) of `% width`.
          const double x = frame.min_x() +
                           frame.width() * static_cast<double>(
                                               next_rand()) *
                               0x1.0p-53;
          const double y = frame.min_y() +
                           frame.height() * static_cast<double>(
                                                next_rand()) *
                               0x1.0p-53;
          ops.push_back(MutationOp::Insert(x, y, next_id));
          live.push_back(next_id++);
        }
      }
      const EngineResult applied =
          engine.ExecuteDml(DmlRequest::MutateOps("clustered", ops));
      KNNQ_CHECK_MSG(applied.ok(), applied.status.ToString().c_str());
      updates += ops.size();
    }
    wall += timer.ElapsedSeconds();
    ran += specs.size();
  }

  RunRecord record;
  record.threads = threads;
  record.workload = "skewed-churn";
  record.cache_mb = cache_mb;
  record.wall_seconds = wall;
  record.queries = ran;
  record.updates = updates;
  record.cache_hits = total.cache_hits;
  record.cache_misses = total.cache_misses;
  record.cache_bytes = total.cache_bytes;
  Records()[name] = record;

  state.counters["queries"] = static_cast<double>(specs.size());
  state.counters["pool_threads"] = static_cast<double>(threads);
  state.counters["qps"] = record.qps();
  state.counters["updates"] = static_cast<double>(updates);
  state.counters["cache_hit_rate"] = record.hit_rate();
  ReportExecStats(state, total);
}

void BM_EngineSerial(benchmark::State& state) {
  const QueryEngine& engine = EngineWith(1, /*cache_mb=*/0);
  const std::vector<QuerySpec> specs = UniformSpecs();
  ExecStats total;
  double wall = 0.0;
  std::size_t ran = 0;
  for (auto _ : state) {
    total = ExecStats{};
    Stopwatch timer;
    for (const QuerySpec& spec : specs) {
      EngineResult result = engine.Run(spec);
      total.Merge(result.stats);
      benchmark::DoNotOptimize(result);
    }
    wall += timer.ElapsedSeconds();
    ran += specs.size();
  }
  RunRecord record;
  record.workload = "uniform";
  record.wall_seconds = wall;
  record.queries = ran;
  Records()["serial/uniform/uncached"] = record;
  state.counters["queries"] = static_cast<double>(specs.size());
  state.counters["qps"] = record.qps();
  ReportExecStats(state, total);
}

void BM_EngineBatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunBatchBenchmark(state,
                    "batch/uniform/uncached/t" + std::to_string(threads),
                    "uniform", threads, 0, UniformSpecs());
}

void BM_EngineBatchCached(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunBatchBenchmark(state,
                    "batch/uniform/cached/t" + std::to_string(threads),
                    "uniform", threads, kCacheMb, UniformSpecs());
}

void BM_EngineBatchSkewed(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunBatchBenchmark(state,
                    "batch/skewed/uncached/t" + std::to_string(threads),
                    "skewed", threads, 0, SkewedSpecs());
}

void BM_EngineBatchSkewedCached(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunBatchBenchmark(state,
                    "batch/skewed/cached/t" + std::to_string(threads),
                    "skewed", threads, kCacheMb, SkewedSpecs());
}

void BM_EngineChurn(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunChurnBenchmark(state,
                    "churn/skewed/uncached/t" + std::to_string(threads),
                    threads, 0);
}

void BM_EngineChurnCached(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  RunChurnBenchmark(state,
                    "churn/skewed/cached/t" + std::to_string(threads),
                    threads, kCacheMb);
}

BENCHMARK(BM_EngineSerial)->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK(BM_EngineBatch)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

BENCHMARK(BM_EngineBatchCached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(4);

BENCHMARK(BM_EngineBatchSkewed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(4);

BENCHMARK(BM_EngineBatchSkewedCached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(4);

BENCHMARK(BM_EngineChurn)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4);

BENCHMARK(BM_EngineChurnCached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4);

}  // namespace

/// Consumes this binary's own flags before benchmark::Initialize sees
/// argv: --workload FILE and --workload-skewed FILE replace the
/// uniform / skewed batches, --churn U:Q sets the churn benchmarks'
/// update:query ratio (default 1:4), --dump-workloads DIR writes the
/// generated batches as .knnql and exits. Returns -1 to continue into
/// the benchmarks, or a process exit code.
int HandleWorkloadArgs(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool takes_value =
        flag == "--workload" || flag == "--workload-skewed" ||
        flag == "--dump-workloads" || flag == "--churn";
    if (!takes_value) {
      argv[kept++] = argv[i];
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 1;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      WorkloadPath("uniform") = value;
    } else if (flag == "--workload-skewed") {
      WorkloadPath("skewed") = value;
    } else if (flag == "--churn") {
      std::size_t updates = 0, queries = 0;
      if (std::sscanf(value.c_str(), "%zu:%zu", &updates, &queries) != 2 ||
          updates == 0 || queries == 0) {
        std::fprintf(stderr,
                     "--churn wants UPDATES:QUERIES (e.g. 1:4), got %s\n",
                     value.c_str());
        return 1;
      }
      ChurnUpdates() = updates;
      ChurnQueries() = queries;
    } else {
      DumpWorkloads(value);
      return 0;
    }
  }
  argc = kept;
  return -1;
}

/// Tracing cost, measured two ways. The hooks are always compiled in,
/// so the number that matters for serving is the DISABLED cost:
/// trace_hook_overhead = spans_per_query x per-span disabled cost x
/// serial qps, the fraction of query wall time spent in no-op
/// instrumentation. tools/check_bench.py gates it at <= 2%. The
/// enabled ratio (traced wall over untraced wall per query) is
/// reported for information only - EXPLAIN ANALYZE and sampled traces
/// are allowed to cost what they cost.
struct TraceOverhead {
  double span_ns = 0.0;
  double spans_per_query = 0.0;
  double hook_overhead = 0.0;
  double enabled_ratio = 0.0;
};

/// Empty on a filtered run that skipped the serial reference row: there
/// is nothing to relate the cost to.
std::optional<TraceOverhead> MeasureTraceOverhead() {
  const auto serial = Records().find("serial/uniform/uncached");
  if (serial == Records().end() || serial->second.wall_seconds <= 0.0 ||
      serial->second.queries == 0) {
    return std::nullopt;
  }
  TraceOverhead result;

  // Disabled-span unit cost: construct/destruct with no trace
  // installed, the state every serving query runs in.
  constexpr std::size_t kSpans = 4'000'000;
  Stopwatch hook_timer;
  for (std::size_t i = 0; i < kSpans; ++i) {
    obs::ScopedSpan span("bench_hook");
    benchmark::DoNotOptimize(span);
  }
  result.span_ns =
      hook_timer.ElapsedSeconds() * 1e9 / static_cast<double>(kSpans);

  // Spans per query and the enabled-tracing wall: one traced pass over
  // the uniform workload.
  const QueryEngine& engine = EngineWith(1, /*cache_mb=*/0);
  const std::vector<QuerySpec> specs = UniformSpecs();
  std::size_t spans = 0;
  Stopwatch traced_timer;
  for (const QuerySpec& spec : specs) {
    const EngineResult run = engine.RunAnalyzed(spec);
    KNNQ_CHECK_MSG(run.ok() && run.trace != nullptr,
                   "traced bench query failed");
    spans += obs::CountSpans(run.trace->root());
  }
  const double traced_wall = traced_timer.ElapsedSeconds();

  result.spans_per_query =
      static_cast<double>(spans) / static_cast<double>(specs.size());
  result.hook_overhead = result.spans_per_query * result.span_ns * 1e-9 *
                         serial->second.qps();
  const double untraced_per_query =
      serial->second.wall_seconds /
      static_cast<double>(serial->second.queries);
  result.enabled_ratio =
      traced_wall / static_cast<double>(specs.size()) / untraced_per_query;
  return result;
}

/// The HTTP observability plane's steady-state cost: one registry
/// render (what a GET /metrics or METRICS verb pays) plus one history
/// sampling pass (what the background sampler pays per interval). At
/// the default 1 Hz sampler with a 1 Hz external scraper that is one
/// of each per second, so obs_plane_overhead = (render + sample)
/// seconds per core-second. tools/check_bench.py gates it at <= 2%,
/// the same budget as the disabled trace hooks.
struct ObsPlaneOverhead {
  double render_ns = 0.0;
  double sample_ns = 0.0;
  double plane_overhead = 0.0;
};

ObsPlaneOverhead MeasureObsPlaneOverhead() {
  ObsPlaneOverhead result;
  // A real Server over a real engine: the registry carries exactly
  // the instruments a serving process scrapes (server counters and
  // latency histograms, engine totals, cache stats, process gauges).
  // Nothing is Start()ed - rendering and sampling need no sockets.
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(MakeCatalog(), options);
  const server::ServerOptions server_options;
  server::Server server(&engine, server_options);

  std::string rendered = server.RenderPrometheus();  // Warm buffers.
  benchmark::DoNotOptimize(rendered);
  constexpr std::size_t kRenders = 500;
  Stopwatch render_timer;
  for (std::size_t i = 0; i < kRenders; ++i) {
    rendered = server.RenderPrometheus();
    benchmark::DoNotOptimize(rendered);
  }
  result.render_ns = render_timer.ElapsedSeconds() * 1e9 /
                     static_cast<double>(kRenders);

  constexpr std::size_t kSamples = 2000;
  Stopwatch sample_timer;
  for (std::size_t i = 0; i < kSamples; ++i) {
    server.history()->SampleOnce();
  }
  result.sample_ns = sample_timer.ElapsedSeconds() * 1e9 /
                     static_cast<double>(kSamples);

  result.plane_overhead = (result.render_ns + result.sample_ns) * 1e-9;
  return result;
}

/// `value` printed with `format` as a JSON number, or `null`.
std::string JsonNumber(std::optional<double> value, const char* format) {
  if (!value.has_value()) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, *value);
  return buf;
}

/// Writes every recorded run plus derived summary ratios. Called from
/// main after the benchmarks finish. A partial run (filtered
/// benchmarks) writes whatever rows exist, and null for each summary
/// field whose rows did not run; a run of no benchmark at all (say
/// --benchmark_list_tests) writes no file.
void WriteBenchJson() {
  const char* env = std::getenv("KNNQ_BENCH_JSON");
  const std::string path =
      env != nullptr ? env : "BENCH_engine_batch.json";
  if (Records().empty()) {
    std::printf("no benchmark ran; %s not written\n", path.c_str());
    return;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }

  std::fprintf(out, "{\n  \"bench\": \"engine_batch\",\n");
  std::fprintf(out, "  \"scale\": %zu,\n", Scale());
  std::fprintf(out, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& [name, r] : Records()) {
    std::fprintf(
        out,
        "%s    {\"name\": \"%s\", \"threads\": %zu, \"workload\": "
        "\"%s\", \"cache_mb\": %zu, \"wall_seconds\": %.6f, "
        "\"queries\": %zu, \"updates\": %zu, \"qps\": %.2f, "
        "\"cache_hits\": %zu, \"cache_misses\": %zu, "
        "\"cache_hit_rate\": %.4f, \"cache_bytes\": %zu}",
        first ? "" : ",\n", name.c_str(), r.threads, r.workload.c_str(),
        r.cache_mb, r.wall_seconds, r.queries, r.updates, r.qps(),
        r.cache_hits, r.cache_misses, r.hit_rate(), r.cache_bytes);
    first = false;
  }
  std::fprintf(out, "\n  ],\n");

  // Summary: the cached-vs-uncached ratios CI gates on. A ratio is the
  // uncached wall time over the cached wall time at equal thread count
  // (> 1 means the cache won).
  using Value = std::optional<double>;
  auto ratio = [](const char* cached, const char* uncached) -> Value {
    const auto& records = Records();
    const auto c = records.find(cached);
    const auto u = records.find(uncached);
    if (c == records.end() || u == records.end()) return std::nullopt;
    if (c->second.wall_seconds <= 0.0) return std::nullopt;
    return u->second.wall_seconds / c->second.wall_seconds;
  };
  const Value skewed_1 =
      ratio("batch/skewed/cached/t1", "batch/skewed/uncached/t1");
  const Value skewed_4 =
      ratio("batch/skewed/cached/t4", "batch/skewed/uncached/t4");
  const Value uniform_4 =
      ratio("batch/uniform/cached/t4", "batch/uniform/uncached/t4");
  Value skewed_hit_rate;
  if (const auto it = Records().find("batch/skewed/cached/t4");
      it != Records().end()) {
    skewed_hit_rate = it->second.hit_rate();
  }
  // Churn vs read-only throughput at the same engine config: the
  // "updates are not allowed to crater serving" ratio check_bench.py
  // gates at >= 0.5x.
  const auto qps_ratio = [](const char* num, const char* den) -> Value {
    const auto& records = Records();
    const auto n = records.find(num);
    const auto d = records.find(den);
    if (n == records.end() || d == records.end()) return std::nullopt;
    if (d->second.qps() <= 0.0) return std::nullopt;
    return n->second.qps() / d->second.qps();
  };
  const Value churn_cached =
      qps_ratio("churn/skewed/cached/t4", "batch/skewed/cached/t4");
  const Value churn_uncached =
      qps_ratio("churn/skewed/uncached/t4", "batch/skewed/uncached/t4");
  Value span_ns, spans_per_query, hook_overhead, enabled_ratio;
  if (const std::optional<TraceOverhead> trace = MeasureTraceOverhead()) {
    span_ns = trace->span_ns;
    spans_per_query = trace->spans_per_query;
    hook_overhead = trace->hook_overhead;
    enabled_ratio = trace->enabled_ratio;
  }
  const ObsPlaneOverhead obs = MeasureObsPlaneOverhead();

  const std::string churn_mix =
      std::to_string(ChurnUpdates()) + ":" + std::to_string(ChurnQueries());
  std::string summary;
  const auto add = [&summary](const char* name, const std::string& value) {
    if (!summary.empty()) summary += ", ";
    summary += std::string("\"") + name + "\": " + value;
  };
  add("skewed_speedup_t1", JsonNumber(skewed_1, "%.3f"));
  add("skewed_speedup_t4", JsonNumber(skewed_4, "%.3f"));
  add("uniform_cached_ratio_t4", JsonNumber(uniform_4, "%.3f"));
  add("skewed_hit_rate", JsonNumber(skewed_hit_rate, "%.4f"));
  add("churn_updates_per_queries", "\"" + churn_mix + "\"");
  add("churn_read_ratio_t4", JsonNumber(churn_cached, "%.3f"));
  add("churn_read_ratio_uncached_t4", JsonNumber(churn_uncached, "%.3f"));
  add("trace_span_ns", JsonNumber(span_ns, "%.2f"));
  add("trace_spans_per_query", JsonNumber(spans_per_query, "%.2f"));
  add("trace_hook_overhead", JsonNumber(hook_overhead, "%.6f"));
  add("trace_enabled_ratio", JsonNumber(enabled_ratio, "%.3f"));
  add("obs_render_ns", JsonNumber(obs.render_ns, "%.0f"));
  add("obs_sample_ns", JsonNumber(obs.sample_ns, "%.0f"));
  add("obs_plane_overhead", JsonNumber(obs.plane_overhead, "%.8f"));
  std::fprintf(out, "  \"summary\": {%s}\n}\n", summary.c_str());
  std::fclose(out);
  std::printf("wrote %s (summary: %s)\n", path.c_str(), summary.c_str());
}

}  // namespace knnq::bench

int main(int argc, char** argv) {
  if (const int rc = knnq::bench::HandleWorkloadArgs(argc, argv); rc >= 0) {
    return rc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  knnq::bench::WriteBenchJson();
  return 0;
}
