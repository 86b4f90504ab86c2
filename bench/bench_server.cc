// Serving-path throughput: the TCP server + loadgen stack against
// in-process RunBatch on the same workload and engine configuration.
//
// Rows form a (threads x clients) grid over the uniform and skewed
// engine-batch workloads:
//
//   * inprocess/<workload>/t<T>       - RunBatch on a T-thread engine,
//     the zero-serving-overhead reference;
//   * server/<workload>/t<T>/c<C>     - knnq server on the same engine
//     config, driven by C closed-loop loadgen connections over
//     loopback TCP; records qps plus client-observed latency
//     percentiles, and asserts zero response/ordering errors.
//
// BENCH_server.json (override with KNNQ_BENCH_JSON) carries every row
// plus the summary ratio CI gates: server_vs_inprocess_t4c8 - the
// served fraction of in-process throughput at 4 worker threads and 8
// clients - must stay >= 0.7 (tools/check_bench.py).
//
// Workloads are textual, exactly like bench_engine_batch: --workload
// FILE and --workload-skewed FILE replay committed .knnql scripts;
// without them the generated batches (same shapes as the committed
// files) are used.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/data/dataset_io.h"
#include "src/engine/query_engine.h"
#include "src/lang/unparser.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"
#include "src/server/wire.h"

namespace knnq::bench {
namespace {

constexpr std::size_t kBatchSize = 264;
/// Loadgen replays per benchmark iteration (requests = C * repeat * N).
constexpr std::size_t kRepeat = 2;

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

/// One round of the six query shapes (the bench_engine_batch mix).
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

std::vector<QuerySpec> GeneratedSpecs(bool skewed) {
  std::vector<QuerySpec> specs;
  specs.reserve(kBatchSize);
  const BoundingBox frame = Frame();
  for (std::size_t i = 0; specs.size() < kBatchSize; ++i) {
    if (skewed) {
      const std::size_t hot = i % 4;
      AppendRound(specs,
                  frame.min_x() + static_cast<double>(4000 + hot * 5600),
                  frame.min_y() + static_cast<double>(3000 + hot * 4400),
                  2 + hot);
    } else {
      AppendRound(specs,
                  frame.min_x() + static_cast<double>((i * 997) % 28000),
                  frame.min_y() + static_cast<double>((i * 613) % 22000),
                  1 + i % 8);
    }
  }
  return specs;
}

std::string& WorkloadPath(const char* kind) {
  static auto& paths = *new std::map<std::string, std::string>();
  return paths[kind];
}

/// The workload as planner specs (in-process reference) and canonical
/// statements (wire replay) - the same queries either way.
struct Workload {
  std::vector<QuerySpec> specs;
  std::vector<std::string> statements;
};

const Workload& WorkloadOf(const char* kind) {
  static auto& cache = *new std::map<std::string, Workload>();
  const auto it = cache.find(kind);
  if (it != cache.end()) return it->second;

  Workload workload;
  const std::string& path = WorkloadPath(kind);
  if (path.empty()) {
    workload.specs = GeneratedSpecs(std::string(kind) == "skewed");
    workload.statements.reserve(workload.specs.size());
    for (const QuerySpec& spec : workload.specs) {
      workload.statements.push_back(knnql::Unparse(spec));
    }
  } else {
    auto text = ReadTextFile(path);
    KNNQ_CHECK_MSG(text.ok(), text.status().ToString().c_str());
    auto specs = BindQueryWorkload(*text, MakeCatalog());
    KNNQ_CHECK_MSG(specs.ok(), specs.status().ToString().c_str());
    workload.specs = std::move(specs.value());
    auto statements = server::SplitStatements(*text);
    KNNQ_CHECK_MSG(statements.ok(),
                   statements.status().ToString().c_str());
    workload.statements = std::move(statements.value());
  }
  return cache.emplace(kind, std::move(workload)).first->second;
}

/// Engines are NOT memoized across rows: each row measures a cold
/// server process shape, and idle pools cost nothing between rows.
std::unique_ptr<QueryEngine> MakeEngine(std::size_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.pool_queue_limit = 512;
  return std::make_unique<QueryEngine>(MakeCatalog(), options);
}

struct RunRecord {
  std::size_t threads = 1;
  std::size_t clients = 0;  // 0: in-process.
  std::string workload;
  double wall_seconds = 0.0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  double qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(requests) / wall_seconds
               : 0.0;
  }
};

std::map<std::string, RunRecord>& Records() {
  static auto& records = *new std::map<std::string, RunRecord>();
  return records;
}

void BM_InProcess(benchmark::State& state, const char* kind) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto engine = MakeEngine(threads);
  const Workload& workload = WorkloadOf(kind);

  double wall = 0.0;
  std::size_t ran = 0;
  for (auto _ : state) {
    Stopwatch timer;
    // Match the loadgen's total request count so both sides do the
    // same work per iteration.
    for (std::size_t r = 0; r < kRepeat; ++r) {
      std::vector<EngineResult> results =
          engine->RunBatch(workload.specs);
      for (const EngineResult& result : results) {
        KNNQ_CHECK_MSG(result.ok(), result.status.ToString().c_str());
      }
      ran += results.size();
      benchmark::DoNotOptimize(results);
    }
    wall += timer.ElapsedSeconds();
  }

  RunRecord record;
  record.threads = threads;
  record.workload = kind;
  record.wall_seconds = wall;
  record.requests = ran;
  const std::string name =
      "inprocess/" + std::string(kind) + "/t" + std::to_string(threads);
  Records()[name] = record;
  state.counters["qps"] = record.qps();
  state.counters["pool_threads"] = static_cast<double>(threads);
}

void BM_Server(benchmark::State& state, const char* kind) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto clients = static_cast<std::size_t>(state.range(1));
  const auto engine = MakeEngine(threads);
  const Workload& workload = WorkloadOf(kind);

  server::ServerOptions server_options;
  server_options.max_inflight = 128;
  server::Server server(engine.get(), server_options);
  const Status started = server.Start();
  KNNQ_CHECK_MSG(started.ok(), started.ToString().c_str());

  server::LoadgenOptions loadgen_options;
  loadgen_options.port = server.port();
  loadgen_options.clients = clients;
  loadgen_options.repeat = kRepeat;

  RunRecord record;
  record.threads = threads;
  record.clients = clients;
  record.workload = kind;
  for (auto _ : state) {
    const auto report =
        server::RunLoadgen(loadgen_options, workload.statements);
    KNNQ_CHECK_MSG(report.ok(), report.status().ToString().c_str());
    KNNQ_CHECK_MSG(report->clean(),
                   "server bench saw response/ordering errors");
    record.wall_seconds += report->wall_seconds;
    record.requests += report->requests;
    record.errors +=
        report->error_responses + report->protocol_errors;
    record.p50_ms = report->p50_ms;
    record.p95_ms = report->p95_ms;
    record.p99_ms = report->p99_ms;
  }
  server.Stop();

  const std::string name = "server/" + std::string(kind) + "/t" +
                           std::to_string(threads) + "/c" +
                           std::to_string(clients);
  Records()[name] = record;
  state.counters["qps"] = record.qps();
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["p99_ms"] = record.p99_ms;
}

BENCHMARK_CAPTURE(BM_InProcess, uniform, "uniform")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(2)
    ->Arg(4);

BENCHMARK_CAPTURE(BM_InProcess, skewed, "skewed")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(2)
    ->Arg(4);

BENCHMARK_CAPTURE(BM_Server, uniform, "uniform")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({4, 8});

BENCHMARK_CAPTURE(BM_Server, skewed, "skewed")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({4, 8});

}  // namespace

/// --workload FILE / --workload-skewed FILE, consumed before
/// benchmark::Initialize. Returns -1 to continue, else an exit code.
int HandleWorkloadArgs(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--workload-skewed") {
      argv[kept++] = argv[i];
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 1;
    }
    WorkloadPath(flag == "--workload" ? "uniform" : "skewed") =
        argv[++i];
  }
  argc = kept;
  return -1;
}

void WriteBenchJson() {
  const char* env = std::getenv("KNNQ_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_server.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }

  std::fprintf(out, "{\n  \"bench\": \"server\",\n");
  std::fprintf(out, "  \"scale\": %zu,\n", Scale());
  std::fprintf(out, "  \"reference\": \"inprocess/uniform/t4\",\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  bool first = true;
  std::size_t total_errors = 0;
  for (const auto& [name, r] : Records()) {
    std::fprintf(
        out,
        "%s    {\"name\": \"%s\", \"threads\": %zu, \"clients\": %zu, "
        "\"workload\": \"%s\", \"wall_seconds\": %.6f, \"requests\": "
        "%zu, \"errors\": %zu, \"qps\": %.2f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f}",
        first ? "" : ",\n", name.c_str(), r.threads, r.clients,
        r.workload.c_str(), r.wall_seconds, r.requests, r.errors,
        r.qps(), r.p50_ms, r.p95_ms, r.p99_ms);
    total_errors += r.errors;
    first = false;
  }
  std::fprintf(out, "\n  ],\n");

  // The acceptance ratio: served throughput over in-process RunBatch
  // at the same engine config (4 threads), 8 concurrent clients.
  const auto ratio = [](const char* server_row, const char* ref_row) {
    const auto& records = Records();
    const auto s = records.find(server_row);
    const auto r = records.find(ref_row);
    if (s == records.end() || r == records.end()) return 0.0;
    if (r->second.qps() <= 0.0) return 0.0;
    return s->second.qps() / r->second.qps();
  };
  const double uniform_ratio =
      ratio("server/uniform/t4/c8", "inprocess/uniform/t4");
  const double skewed_ratio =
      ratio("server/skewed/t4/c8", "inprocess/skewed/t4");
  std::fprintf(out,
               "  \"summary\": {\"server_vs_inprocess_t4c8\": %.3f, "
               "\"server_vs_inprocess_t4c8_skewed\": %.3f, "
               "\"total_errors\": %zu}\n}\n",
               uniform_ratio, skewed_ratio, total_errors);
  std::fclose(out);
  std::printf("wrote %s (server/inprocess t4c8: uniform %.2fx, skewed "
              "%.2fx, errors %zu)\n",
              path.c_str(), uniform_ratio, skewed_ratio, total_errors);
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
