// knnq command-line tool: generate datasets, inspect indexes, and run
// KNNQL statements through the planner with EXPLAIN output, locally or
// as a network server.
//
// Usage:
//   knnq_cli generate --kind berlin|uniform|clusters --n N [--clusters C]
//            [--per P] [--seed S] --out FILE(.csv|.bin)
//   knnq_cli info --data FILE [--index grid|quadtree|rtree]
//   knnq_cli knn --data FILE --at X,Y --k K [--index TYPE]
//   knnq_cli query --data NAME=FILE [--data NAME=FILE ...]
//            [-e "KNNQL"] [--file SCRIPT.knnql] [--json] [--naive]
//            [--index TYPE] [--cache-mb M]
//   knnq_cli serve --data NAME=FILE [--data NAME=FILE ...]
//            [--host H] [--port P] [--threads T] [--max-inflight M]
//            [--max-conn-inflight M] [--max-request-bytes B]
//            [--idle-timeout-ms T] [--cache-mb M] [--index TYPE]
//            [--data-dir DIR] [--wal-sync always|interval|none]
//            [--snapshot-interval-ops N]
//            [--http-port P] [--http-host H] [--history-interval-ms T]
//            [--drain-linger-ms T]
//
// Each command refuses any flag it does not read ("unknown flag --shard
// for query"), so a misspelled configuration fails instead of running
// the default one. --no-simd is accepted by every command.
//
// `query` is the declarative front door: statements in KNNQL (see
// README "KNNQL"), from -e, a script file, or an interactive REPL when
// neither is given. Every query shape runs through it. An EXPLAIN
// prefix plans a statement without executing it; EXPLAIN ANALYZE
// executes it and reports the traced span tree; --json emits one JSON
// object per statement for scripted consumers. DML statements (INSERT
// INTO / DELETE FROM / LOAD ... FROM 'file') mutate relations in place
// and may interleave with queries in the same script or session.
//
// `query` and `serve` accept --cache-mb M to give the engine an M-MiB
// cross-query neighborhood cache (0, the default, disables it), and
// every command accepts --no-simd to disable the AVX2 distance kernel
// (results are byte-identical either way; the flag exists for speed
// A/B runs).
//
// `serve --http-port P` adds the HTTP observability plane: GET
// /metrics (Prometheus exposition, byte-identical to the METRICS;
// verb), /healthz (liveness), /readyz (readiness, 503 with reasons
// during recovery and drain) and /statusz (JSON introspection with
// ring-buffer time series sampled every --history-interval-ms).
// --drain-linger-ms keeps /readyz answering 503 "draining" for that
// window after a graceful shutdown's drain, so load balancers observe
// not-ready before the endpoints disappear.
//
// Dataset files are produced by `generate` (CSV: id,x,y with a header;
// .bin: the knnq binary format).

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/text_parse.h"
#include "src/data/berlinmod.h"
#include "src/data/clustered.h"
#include "src/data/dataset_io.h"
#include "src/data/distribution_stats.h"
#include "src/data/uniform.h"
#include "src/durability/durability_manager.h"
#include "src/engine/query_engine.h"
#include "src/index/distance_kernel.h"
#include "src/index/knn_searcher.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"
#include "src/obs/log.h"
#include "src/obs/trace.h"
#include "src/planner/catalog.h"
#include "src/planner/optimizer.h"
#include "src/server/server.h"
#include "src/server/wire.h"

namespace {

using namespace knnq;

/// Minimal "--flag value" parser. Flags may repeat (--data twice loads
/// two relations); Get sees the last occurrence, GetAll sees every one.
/// "-e" is accepted as the conventional short form for query text.
class Args {
 public:
  /// Parses argv[first..] for `command`, refusing any flag outside
  /// `known` except --no-simd, which every command takes.
  static Result<Args> Parse(int argc, char** argv, int first,
                            const std::string& command,
                            const std::set<std::string_view>& known) {
    Args args;
    for (int i = first; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0 && flag != "-e") {
        return Status::InvalidArgument("expected --flag, got: " + flag);
      }
      if (flag != "--no-simd" && !known.contains(flag)) {
        return Status::InvalidArgument("unknown flag " + flag + " for " +
                                       command);
      }
      if (flag == "--naive" || flag == "--json" ||
          flag == "--allow-remote-shutdown" || flag == "--no-simd") {
        args.values_[flag].push_back("1");
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + flag);
      }
      args.values_[flag].push_back(argv[++i]);
    }
    return args;
  }

  Result<std::string> Get(const std::string& flag) const {
    const auto it = values_.find(flag);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag " + flag);
    }
    return it->second.back();
  }

  std::string GetOr(const std::string& flag, std::string fallback) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : it->second.back();
  }

  /// Every value the flag was given, in command-line order.
  std::vector<std::string> GetAll(const std::string& flag) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  bool Has(const std::string& flag) const { return values_.contains(flag); }

  Result<std::size_t> GetSize(const std::string& flag) const {
    auto raw = Get(flag);
    if (!raw.ok()) return raw.status();
    auto parsed = ParseSize(*raw);
    if (!parsed.ok() || *parsed == 0) {
      return Status::InvalidArgument(flag + " must be a positive integer");
    }
    return *parsed;
  }

  /// Like GetSize, but absent means `fallback` and 0 is legal (used by
  /// --cache-mb, where 0 means "cache disabled").
  Result<std::size_t> GetSizeOr(const std::string& flag,
                                std::size_t fallback) const {
    if (!Has(flag)) return fallback;
    auto raw = Get(flag);
    if (!raw.ok()) return raw.status();
    auto parsed = ParseSize(*raw);
    if (!parsed.ok()) {
      return Status::InvalidArgument(flag +
                                     " must be a non-negative integer");
    }
    return *parsed;
  }

  Result<Point> GetPoint(const std::string& flag) const {
    auto raw = Get(flag);
    if (!raw.ok()) return raw.status();
    auto point = ParsePointText(*raw);
    if (!point.ok()) {
      return Status::InvalidArgument(flag + " " +
                                     point.status().message());
    }
    return point;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// --cache-mb, the neighborhood cache budget in MiB taken by every
/// command that runs queries; absent means 0 (no cache). A budget whose
/// byte count would not fit in size_t is refused rather than wrapped.
Result<std::size_t> GetCacheMb(const Args& args) {
  auto cache_mb = args.GetSizeOr("--cache-mb", 0);
  if (cache_mb.ok() && *cache_mb > (SIZE_MAX >> 20)) {
    return Status::InvalidArgument("--cache-mb must be <= " +
                                   std::to_string(SIZE_MAX >> 20));
  }
  return cache_mb;
}

/// A millisecond flag of `serve`: absent means `fallback`, and a value
/// the server's int milliseconds cannot hold is refused rather than
/// wrapped (4294967295 would become -1).
Result<std::size_t> GetMillisOr(const Args& args, const std::string& flag,
                                std::size_t fallback) {
  auto ms = args.GetSizeOr(flag, fallback);
  if (ms.ok() && *ms > static_cast<std::size_t>(INT_MAX)) {
    return Status::InvalidArgument(flag + " must be <= " +
                                   std::to_string(INT_MAX));
  }
  return ms;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<IndexType> ParseIndexType(const std::string& name) {
  if (name == "grid") return IndexType::kGrid;
  if (name == "quadtree") return IndexType::kQuadtree;
  if (name == "rtree") return IndexType::kRTree;
  return Status::InvalidArgument("unknown index type: " + name);
}

/// --index, the structure every relation of `query` and `serve` is
/// indexed with.
Result<IndexOptions> ParseIndexFlags(const Args& args) {
  auto type = ParseIndexType(args.GetOr("--index", "grid"));
  if (!type.ok()) return type.status();
  IndexOptions options;
  options.type = *type;
  return options;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Shared observability flags of `query` and `serve`: the slow-query
/// log threshold, the trace sampling knob, and the diagnostics sink.
Status ApplyObsFlags(const Args& args, EngineOptions* options) {
  if (args.Has("--slow-query-ms")) {
    auto raw = args.Get("--slow-query-ms");
    if (!raw.ok()) return raw.status();
    auto ms = ParseDouble(*raw);
    if (!ms.ok() || *ms < 0) {
      return Status::InvalidArgument("--slow-query-ms must be >= 0");
    }
    options->slow_query_ms = *ms;
  }
  auto every = args.GetSizeOr("--trace-sample-every", 0);
  if (!every.ok()) return every.status();
  options->trace_sample_every = *every;
  if (args.Has("--log-level")) {
    auto level = obs::ParseLogLevel(*args.Get("--log-level"));
    if (!level.ok()) return level.status();
    obs::Logger::Global().SetLevel(*level);
  }
  if (args.Has("--log-file")) {
    if (Status s = obs::Logger::Global().OpenFile(*args.Get("--log-file"));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

int CmdGenerate(const Args& args) {
  const std::string kind = args.GetOr("--kind", "berlin");
  auto n = args.GetSize("--n");
  if (!n.ok()) return Fail(n.status());
  auto seed = args.GetSizeOr("--seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  auto clusters = args.Has("--clusters") ? args.GetSize("--clusters")
                                         : Result<std::size_t>(4);
  if (!clusters.ok()) return Fail(clusters.status());
  auto per = args.Has("--per") ? args.GetSize("--per")
                               : Result<std::size_t>(*n / *clusters);
  if (!per.ok()) return Fail(per.status());
  auto out = args.Get("--out");
  if (!out.ok()) return Fail(out.status());

  PointSet points;
  if (kind == "berlin") {
    BerlinModOptions options;
    options.num_points = *n;
    options.seed = *seed;
    auto generated = GenerateBerlinModSnapshot(options);
    if (!generated.ok()) return Fail(generated.status());
    points = std::move(generated.value());
  } else if (kind == "uniform") {
    points = GenerateUniform(*n, BoundingBox(0, 0, 30000, 24000), *seed);
  } else if (kind == "clusters") {
    ClusterOptions options;
    options.num_clusters = *clusters;
    options.points_per_cluster = *per;
    options.cluster_radius = 800.0;
    options.region = BoundingBox(0, 0, 30000, 24000);
    options.seed = *seed;
    auto generated = GenerateClusters(options);
    if (!generated.ok()) return Fail(generated.status());
    points = std::move(generated.value());
  } else {
    return Fail(Status::InvalidArgument("unknown --kind " + kind));
  }

  const Status saved = EndsWith(*out, ".bin") ? SaveBinary(points, *out)
                                              : SaveCsv(points, *out);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %zu points to %s\n", points.size(), out->c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  auto path = args.Get("--data");
  if (!path.ok()) return Fail(path.status());
  auto points = LoadPoints(*path);
  if (!points.ok()) return Fail(points.status());
  auto type = ParseIndexType(args.GetOr("--index", "grid"));
  if (!type.ok()) return Fail(type.status());

  IndexOptions options;
  options.type = *type;
  Stopwatch sw;
  auto index = BuildIndex(*points, options);
  if (!index.ok()) return Fail(index.status());
  const double build_ms = sw.ElapsedMillis();

  const BoundingBox& bounds = (*index)->bounds();
  const CoverageStats coverage = EstimateCoverage(*points, bounds);
  std::printf("points:   %zu\n", (*index)->num_points());
  std::printf("bounds:   %s\n", bounds.ToString().c_str());
  std::printf("index:    %s (built in %.1f ms)\n",
              (*index)->Describe().c_str(), build_ms);
  std::printf("coverage: %.1f%% of probe cells occupied\n",
              100.0 * coverage.coverage());
  return 0;
}

int CmdKnn(const Args& args) {
  auto path = args.Get("--data");
  if (!path.ok()) return Fail(path.status());
  auto at = args.GetPoint("--at");
  if (!at.ok()) return Fail(at.status());
  auto k = args.GetSize("--k");
  if (!k.ok()) return Fail(k.status());
  auto type = ParseIndexType(args.GetOr("--index", "grid"));
  if (!type.ok()) return Fail(type.status());

  auto points = LoadPoints(*path);
  if (!points.ok()) return Fail(points.status());
  IndexOptions options;
  options.type = *type;
  auto index = BuildIndex(std::move(points.value()), options);
  if (!index.ok()) return Fail(index.status());

  KnnSearcher searcher(**index);
  Stopwatch sw;
  const Neighborhood nbr = searcher.GetKnn(*at, *k);
  const double ms = sw.ElapsedMillis();
  std::printf("%zu neighbors in %.3f ms (%zu blocks, %zu points "
              "examined)\n",
              nbr.size(), ms, searcher.stats().blocks_scanned,
              searcher.stats().points_scanned);
  for (const Neighbor& n : nbr) {
    std::printf("  %s  dist %.2f\n", n.point.ToString().c_str(), n.dist);
  }
  return 0;
}

// --------------------------------------------------------------- query
//
// A statement binds, runs and renders by server::Session's rules:
// queries bind through QueryEngine::BindQuery, DML through
// knnql::BindDml(body, nullptr), so ExecuteDml answers NotFound for an
// unknown INSERT/DELETE target under the writer lock, and JSON output
// goes through src/server/wire.h. `--json` and the network server emit
// the same record for the same statement, apart from the server's id.

void PrintHumanResult(const EngineResult& run) {
  std::printf("%s", run.explain.c_str());
  const double ms = run.stats.wall_seconds * 1e3;
  std::visit(
      [&](const auto& result) {
        using T = std::decay_t<decltype(result)>;
        if constexpr (std::is_same_v<T, TwoSelectsResult>) {
          std::printf("result: %zu points in %.2f ms\n", result.size(), ms);
          for (const Point& p : result) {
            std::printf("  %s\n", p.ToString().c_str());
          }
        } else {
          std::printf("result: %s in %.2f ms\n", Summarize(result).c_str(),
                      ms);
        }
      },
      run.output);
}

/// A failed statement: in JSON mode it still lands on stdout, as the
/// server's error record. `kind` names the failed statement ("query"
/// or "statement"); it is empty for a parse or bind error.
int FailStatement(std::string_view kind, const std::string& text,
                  const Status& status, bool json) {
  if (json) {
    std::printf("%s\n",
                server::JsonErrorRecord(kind, text, status).c_str());
    return 1;
  }
  return Fail(status);
}

/// Executes one DML statement (INSERT / DELETE / LOAD) and prints the
/// outcome in the requested format.
int ExecuteDml(QueryEngine& engine, const knnql::Statement& statement,
               bool json) {
  const auto dml = knnql::BindDml(statement.body, /*catalog=*/nullptr);
  if (!dml.ok()) return FailStatement("", "", dml.status(), json);
  const std::string text = knnql::Unparse(*dml);
  const EngineResult run = engine.ExecuteDml(*dml);
  if (!run.ok()) return FailStatement("statement", text, run.status, json);
  if (json) {
    std::printf("%s\n", server::JsonDmlRecord(text, run).c_str());
  } else {
    std::printf("%s", run.explain.c_str());
  }
  return 0;
}

/// Executes one parsed statement — binding it against the engine's
/// CURRENT catalog, so a LOAD can create relations that later
/// statements of the same script use — and prints it in the requested
/// format. `parse_ns` is the statement's own parse time (0: unknown).
/// Returns 0 on success (including a printed EXPLAIN).
int ExecuteStatement(QueryEngine& engine,
                     const knnql::Statement& statement, bool json,
                     std::uint64_t parse_ns) {
  const auto* query = std::get_if<knnql::Query>(&statement.body);
  if (query == nullptr) return ExecuteDml(engine, statement, json);
  Stopwatch bind_timer;
  const auto spec = engine.BindQuery(*query);
  const double bind_seconds = bind_timer.ElapsedSeconds();
  if (!spec.ok()) return FailStatement("", "", spec.status(), json);

  const std::string text = knnql::Unparse(*spec);
  if (statement.analyze) {
    const EngineResult run = engine.RunAnalyzed(
        *spec, parse_ns, static_cast<std::uint64_t>(bind_seconds * 1e9));
    if (!run.ok()) return FailStatement("query", text, run.status, json);
    if (json) {
      std::printf("%s\n", server::JsonAnalyzeRecord(text, run).c_str());
    } else {
      PrintHumanResult(run);
      std::printf("%s", obs::RenderText(run.trace->root()).c_str());
    }
    return 0;
  }
  if (statement.explain) {
    const auto explain = engine.Explain(*spec);
    if (!explain.ok()) {
      return FailStatement("query", text, explain.status(), json);
    }
    if (json) {
      std::printf("%s\n",
                  server::JsonExplainRecord(text, *explain).c_str());
    } else {
      std::printf("%s", explain->c_str());
    }
    return 0;
  }

  const EngineResult run = engine.Run(*spec);
  if (!run.ok()) return FailStatement("query", text, run.status, json);
  if (json) {
    std::printf("%s\n", server::JsonQueryRecord(text, run).c_str());
  } else {
    PrintHumanResult(run);
  }
  return 0;
}

/// Executes a parsed text's statements in order. `parse_ns` timed the
/// parse of the whole text, so it is a statement's own parse time only
/// when the text held that one statement; the EXPLAIN ANALYZE records
/// of a longer text carry no "parse" span.
int ExecuteStatements(QueryEngine& engine, const knnql::Script& script,
                      bool json, std::uint64_t parse_ns) {
  if (script.size() > 1) parse_ns = 0;
  int rc = 0;
  for (const knnql::Statement& statement : script) {
    if (ExecuteStatement(engine, statement, json, parse_ns) != 0) rc = 1;
  }
  return rc;
}

/// Parses and executes `text` (possibly several statements). Returns
/// nonzero when anything — parse, bind, plan, execution — failed.
/// Statements bind one at a time, so DML earlier in the text is
/// visible to the queries after it.
int RunKnnqlText(QueryEngine& engine, const std::string& text, bool json) {
  Stopwatch parse_timer;
  const auto script = knnql::ParseScript(text);
  const auto parse_ns =
      static_cast<std::uint64_t>(parse_timer.ElapsedSeconds() * 1e9);
  if (!script.ok()) return FailStatement("", "", script.status(), json);
  return ExecuteStatements(engine, *script, json, parse_ns);
}

/// Interactive loop: statements accumulate across lines until they are
/// syntactically complete, errors never end the session, EXPLAIN plans
/// without executing. Exits on end-of-input or "quit"/"exit". When
/// stdin is not a terminal (a piped script), any failed statement
/// makes the final exit code nonzero.
int RunRepl(QueryEngine& engine, bool json) {
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::printf("KNNQL. Statements end with ';'. EXPLAIN <query>; shows "
                "the plan; INSERT/DELETE/LOAD mutate relations. quit to "
                "leave.\n");
    for (const std::string& name : engine.catalog().Names()) {
      std::printf("  relation %s (%zu points)\n", name.c_str(),
                  engine.catalog().Get(name).value()->index->num_points());
    }
  }
  std::string buffer;
  std::string line;
  int rc = 0;
  while (true) {
    if (interactive) {
      std::fputs(buffer.empty() ? "knnql> " : "  ...> ", stdout);
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    if (buffer.empty()) {
      const std::string_view command = TrimWhitespace(line);
      if (command == "quit" || command == "exit" || command == "\\q") {
        break;
      }
    }
    buffer += line;
    buffer += '\n';
    if (TrimWhitespace(buffer).empty()) {
      buffer.clear();
      continue;
    }
    // A statement may span lines: on "ended mid-statement" keep
    // reading; on any other parse error report and reset. Binding
    // happens per statement during execution, against the live
    // catalog.
    Stopwatch parse_timer;
    const auto parsed = knnql::ParseScript(buffer);
    const auto parse_ns =
        static_cast<std::uint64_t>(parse_timer.ElapsedSeconds() * 1e9);
    if (!parsed.ok()) {
      if (knnql::IsIncompleteInput(parsed.status())) continue;
      FailStatement("", "", parsed.status(), json);
      rc = 1;
    } else if (ExecuteStatements(engine, *parsed, json, parse_ns) != 0) {
      rc = 1;
    }
    buffer.clear();
  }
  if (!TrimWhitespace(buffer).empty()) {
    // Input ended mid-statement (script piped without a final ';').
    if (RunKnnqlText(engine, buffer, json) != 0) rc = 1;
  }
  // An interactive session already showed its errors; only a piped
  // script propagates them as the exit code.
  return interactive ? 0 : rc;
}

/// Loads every --data NAME=FILE relation into `catalog` (shared by
/// `query` and `serve`).
Status BuildCatalog(const Args& args, const IndexOptions& index_options,
                    Catalog* catalog) {
  const std::vector<std::string> data = args.GetAll("--data");
  if (data.empty()) {
    return Status::InvalidArgument("need at least one --data NAME=FILE");
  }
  for (const std::string& spec : data) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument(
          "--data must look like NAME=FILE, got: " + spec);
    }
    const std::string name = spec.substr(0, eq);
    // A relation no KNNQL statement could reference (keyword, bad
    // character) is a mistake better caught at load time.
    const auto tokens = knnql::Tokenize(name);
    if (!tokens.ok() || tokens->size() != 2 ||
        (*tokens)[0].kind != knnql::TokenKind::kIdentifier ||
        (*tokens)[0].text != name) {
      return Status::InvalidArgument(
          "--data relation name '" + name +
          "' must be a KNNQL identifier ([A-Za-z_][A-Za-z0-9_]*, "
          "not a keyword)");
    }
    auto points = LoadPoints(spec.substr(eq + 1));
    if (!points.ok()) return points.status();
    const Status added = catalog->AddRelation(
        name, std::move(points.value()), index_options);
    if (!added.ok()) return added;
  }
  return Status::Ok();
}

int CmdQuery(const Args& args) {
  if (args.Has("-e") && args.Has("--file")) {
    return Fail(Status::InvalidArgument(
        "pass statements with -e or --file, not both"));
  }
  auto index_options = ParseIndexFlags(args);
  if (!index_options.ok()) return Fail(index_options.status());
  auto cache_mb = GetCacheMb(args);
  if (!cache_mb.ok()) return Fail(cache_mb.status());

  Catalog catalog;
  if (const Status s = BuildCatalog(args, *index_options, &catalog);
      !s.ok()) {
    return Fail(s);
  }

  EngineOptions options;
  options.num_threads = 1;  // Statements run one at a time.
  options.cache_mb = *cache_mb;
  options.planner.force_naive = args.Has("--naive");
  // The structure of LOAD-created relations.
  options.index_options = *index_options;
  if (const Status s = ApplyObsFlags(args, &options); !s.ok()) {
    return Fail(s);
  }
  QueryEngine engine(std::move(catalog), options);
  const bool json = args.Has("--json");

  if (args.Has("-e")) {
    int rc = 0;
    for (const std::string& text : args.GetAll("-e")) {
      if (RunKnnqlText(engine, text, json) != 0) rc = 1;
    }
    return rc;
  }
  if (args.Has("--file")) {
    auto script = ReadTextFile(*args.Get("--file"));
    if (!script.ok()) return Fail(script.status());
    return RunKnnqlText(engine, *script, json);
  }
  return RunRepl(engine, json);
}

// ---------------------------------------------------------------- serve

/// The live server a termination signal should stop. Lock-free atomic:
/// a plain pointer read from a signal handler racing the main thread's
/// store is undefined behavior.
std::atomic<server::Server*> g_serving{nullptr};

/// SIGINT/SIGTERM begin the same graceful drain the SHUTDOWN verb
/// does. RequestStop is async-signal-safe (atomic store + pipe write).
void HandleTermSignal(int) {
  server::Server* serving = g_serving.load();
  if (serving != nullptr) serving->RequestStop();
}

int CmdServe(const Args& args) {
  // Every numeric flag is checked before any file is opened or loaded,
  // so a bad value costs no data load.
  auto cache_mb = GetCacheMb(args);
  auto threads = args.GetSizeOr("--threads", 0);
  auto port = args.GetSizeOr("--port", 4410);
  auto max_inflight = args.GetSizeOr("--max-inflight", 64);
  auto max_conn_inflight = args.GetSizeOr("--max-conn-inflight", 16);
  auto max_request_bytes =
      args.GetSizeOr("--max-request-bytes", std::size_t{1} << 20);
  auto idle_timeout_ms = GetMillisOr(args, "--idle-timeout-ms", 0);
  auto max_connections = args.GetSizeOr("--max-connections", 256);
  auto write_timeout_ms = GetMillisOr(args, "--write-timeout-ms", 10000);
  auto shutdown_grace_ms = GetMillisOr(args, "--shutdown-grace-ms", 5000);
  auto http_port = args.GetSizeOr("--http-port", 0);
  auto history_interval_ms =
      GetMillisOr(args, "--history-interval-ms", 1000);
  auto drain_linger_ms = GetMillisOr(args, "--drain-linger-ms", 0);
  auto sync_every = args.GetSizeOr("--wal-sync-interval-ops", 64);
  auto snap_every = args.GetSizeOr("--snapshot-interval-ops", 0);
  for (const auto* flag :
       {&cache_mb, &threads, &port, &max_inflight, &max_conn_inflight,
        &max_request_bytes, &idle_timeout_ms, &max_connections,
        &write_timeout_ms, &shutdown_grace_ms, &http_port,
        &history_interval_ms, &drain_linger_ms, &sync_every,
        &snap_every}) {
    if (!flag->ok()) return Fail(flag->status());
  }
  if (*port > 65535) {
    return Fail(Status::InvalidArgument("--port must be <= 65535"));
  }
  if (*http_port > 65535) {
    return Fail(Status::InvalidArgument("--http-port must be <= 65535"));
  }
  if (*history_interval_ms == 0) {
    return Fail(Status::InvalidArgument(
        "--history-interval-ms must be a positive integer"));
  }
  if (args.Has("--http-host") && !args.Has("--http-port")) {
    return Fail(
        Status::InvalidArgument("--http-host requires --http-port"));
  }

  auto index_options = ParseIndexFlags(args);
  if (!index_options.ok()) return Fail(index_options.status());

  Catalog catalog;

  // Durable serving: --data-dir DIR opens (or creates) a WAL +
  // snapshot pair there. On a restart the snapshot seeds the catalog
  // and the WAL tail replays; --data files seed only a fresh dir.
  const std::string data_dir = args.GetOr("--data-dir", "");
  std::unique_ptr<durability::DurabilityManager> durable;
  durability::WalSyncPolicy wal_sync = durability::WalSyncPolicy::kAlways;
  if (!data_dir.empty()) {
    auto sync =
        durability::ParseWalSyncPolicy(args.GetOr("--wal-sync", "always"));
    if (!sync.ok()) return Fail(sync.status());
    wal_sync = *sync;
    durability::DurabilityOptions durable_options;
    durable_options.data_dir = data_dir;
    durable_options.sync = wal_sync;
    durable_options.sync_interval_ops = *sync_every;
    durable_options.snapshot_interval_ops = *snap_every;
    durable_options.index_options = *index_options;
    auto opened =
        durability::DurabilityManager::Open(std::move(durable_options));
    if (!opened.ok()) return Fail(opened.status());
    durable = std::move(*opened);
  } else {
    for (const char* flag :
         {"--wal-sync", "--wal-sync-interval-ops",
          "--snapshot-interval-ops"}) {
      if (args.Has(flag)) {
        return Fail(Status::InvalidArgument(
            std::string(flag) + " requires --data-dir"));
      }
    }
  }

  if (durable != nullptr && durable->recovered_from_snapshot()) {
    // The snapshot is the source of truth for this data dir; --data
    // seeds only the first boot.
    if (args.Has("--data")) {
      std::printf("note: %s already has a snapshot; --data files "
                  "ignored in favor of the recovered catalog\n",
                  data_dir.c_str());
    }
    if (const Status s = durable->SeedCatalog(&catalog); !s.ok()) {
      return Fail(s);
    }
  } else if (durable == nullptr || args.Has("--data")) {
    // A fresh durable server may start empty (LOAD creates relations);
    // a non-durable one still needs at least one --data.
    if (const Status s = BuildCatalog(args, *index_options, &catalog);
        !s.ok()) {
      return Fail(s);
    }
  }

  EngineOptions options;
  options.num_threads = *threads;
  options.cache_mb = *cache_mb;
  options.planner.force_naive = args.Has("--naive");
  options.index_options = *index_options;
  // Engine-side backpressure: the pool queue bounds what admission
  // control has already granted, with headroom for DML and drains.
  options.pool_queue_limit =
      *max_inflight > 0 ? *max_inflight * 2 : std::size_t{0};
  if (const Status s = ApplyObsFlags(args, &options); !s.ok()) {
    return Fail(s);
  }
  options.wal = durable.get();
  QueryEngine engine(std::move(catalog), options);

  server::ServerOptions server_options;
  server_options.host = args.GetOr("--host", "127.0.0.1");
  server_options.port = static_cast<std::uint16_t>(*port);
  server_options.max_inflight = *max_inflight;
  server_options.limits.max_conn_inflight = *max_conn_inflight;
  server_options.limits.max_request_bytes = *max_request_bytes;
  // LOAD over the wire is opt-in: without --load-dir a network peer
  // cannot make the server read any server-side file; with it, paths
  // are confined to that directory.
  server_options.limits.load_dir = args.GetOr("--load-dir", "");
  server_options.idle_timeout_ms = static_cast<int>(*idle_timeout_ms);
  server_options.max_connections = *max_connections;
  server_options.write_timeout_ms = static_cast<int>(*write_timeout_ms);
  server_options.shutdown_grace_ms =
      static_cast<int>(*shutdown_grace_ms);
  // The SHUTDOWN verb is opt-in too: any peer that can connect could
  // otherwise stop a server bound beyond loopback.
  server_options.allow_remote_shutdown =
      args.Has("--allow-remote-shutdown");
  server_options.http_enabled = args.Has("--http-port");
  server_options.http.host = args.GetOr("--http-host", "127.0.0.1");
  server_options.http.port = static_cast<std::uint16_t>(*http_port);
  server_options.history.interval_ms =
      static_cast<int>(*history_interval_ms);
  server_options.drain_linger_ms = static_cast<int>(*drain_linger_ms);
  if (durable != nullptr) {
    durability::DurabilityManager* manager = durable.get();
    QueryEngine* engine_ptr = &engine;
    server_options.snapshot_handler = [manager, engine_ptr] {
      return manager->Snapshot(engine_ptr);
    };
    server_options.wal_writable = [manager] { return manager->writable(); };
  }
  server::Server server(&engine, server_options);
  if (durable != nullptr) durable->RegisterMetrics(server.registry());

  // The observability plane comes up BEFORE recovery: /healthz answers
  // immediately, and /readyz reports 503 "recovery in progress" for as
  // long as the WAL replay runs.
  if (durable != nullptr) server.BeginRecovery();
  if (const Status started = server.StartHttp(); !started.ok()) {
    return Fail(started);
  }
  if (server_options.http_enabled) {
    std::printf("observability HTTP on %s:%u "
                "(/metrics /healthz /readyz /statusz)\n",
                server_options.http.host.c_str(), server.http_port());
    std::fflush(stdout);
  }

  durability::RecoveryReport recovery;
  if (durable != nullptr) {
    auto report = durable->Recover(&engine);
    if (!report.ok()) return Fail(report.status());
    recovery = *report;
    server.EndRecovery();
  }

  // Listed before Start(): once the server accepts, clients may be
  // mutating the catalog already.
  for (const std::string& name : engine.catalog().Names()) {
    std::printf("  relation %s (%zu points)\n", name.c_str(),
                engine.catalog().Get(name).value()->index->num_points());
  }
  if (durable != nullptr) {
    std::printf(
        "durable: %s (wal-sync=%s); recovered to lsn %llu "
        "(%s snapshot at lsn %llu, %llu WAL records replayed)\n",
        data_dir.c_str(), durability::ToString(wal_sync),
        static_cast<unsigned long long>(recovery.last_lsn),
        recovery.from_snapshot ? "loaded" : "no",
        static_cast<unsigned long long>(recovery.snapshot_lsn),
        static_cast<unsigned long long>(recovery.replayed_records));
    if (recovery.wal_truncated) {
      std::printf("  dropped torn WAL tail: %s\n",
                  recovery.wal_tail_error.c_str());
    }
  }
  if (const Status started = server.Start(); !started.ok()) {
    return Fail(started);
  }
  g_serving = &server;
  std::signal(SIGINT, HandleTermSignal);
  std::signal(SIGTERM, HandleTermSignal);

  std::printf("serving KNNQL on %s:%u (%zu worker threads, "
              "max in-flight %zu, cache %zu MiB)\n",
              server_options.host.c_str(), server.port(),
              engine.num_threads(), *max_inflight, *cache_mb);
  std::fflush(stdout);

  server.WaitUntilStopRequested();
  std::printf("shutdown requested; draining in-flight queries...\n");
  std::fflush(stdout);
  server.Stop();
  g_serving = nullptr;

  const auto& metrics = server.metrics();
  std::printf(
      "served %llu requests (%llu responses, %llu errors, %llu "
      "overload rejections) on %llu connections; clean shutdown\n",
      static_cast<unsigned long long>(metrics.requests.Value()),
      static_cast<unsigned long long>(metrics.responses.Value()),
      static_cast<unsigned long long>(metrics.errors.Value()),
      static_cast<unsigned long long>(metrics.overload_rejections.Value()),
      static_cast<unsigned long long>(metrics.connections_opened.Value()));
  return 0;
}

void PrintUsage() {
  std::puts(
      "knnq_cli <command> [flags]\n"
      "commands:\n"
      "  generate  --kind berlin|uniform|clusters --n N --out F\n"
      "            [--clusters C] [--per P] [--seed S]\n"
      "  info      --data F [--index grid|quadtree|rtree]\n"
      "  knn       --data F --at X,Y --k K [--index TYPE]\n"
      "  query     --data NAME=F [--data NAME=F ...]\n"
      "            [-e \"KNNQL\"] [--file SCRIPT.knnql] [--json] [--naive]\n"
      "            [--index TYPE] [--cache-mb M]\n"
      "            [--slow-query-ms MS] [--trace-sample-every N]\n"
      "            [--log-file F] [--log-level L]\n"
      "  serve     --data NAME=F [--data NAME=F ...]\n"
      "            [--host H] [--port P] [--threads T] [--naive]\n"
      "            [--max-inflight M] [--max-conn-inflight M]\n"
      "            [--max-request-bytes B] [--idle-timeout-ms T]\n"
      "            [--max-connections C] [--write-timeout-ms T]\n"
      "            [--shutdown-grace-ms T] [--load-dir DIR]\n"
      "            [--allow-remote-shutdown]\n"
      "            [--data-dir DIR] [--wal-sync always|interval|none]\n"
      "            [--wal-sync-interval-ops N]\n"
      "            [--snapshot-interval-ops N]\n"
      "            [--cache-mb M] [--index TYPE]\n"
      "            [--http-port P] [--http-host H]\n"
      "            [--history-interval-ms T] [--drain-linger-ms T]\n"
      "            [--slow-query-ms MS] [--trace-sample-every N]\n"
      "            [--log-file F] [--log-level L]\n"
      "every command also takes --no-simd, which disables the AVX2\n"
      "distance kernel (pure speed A/B: results are byte-identical\n"
      "either way), and refuses any flag it does not read.\n"
      "query reads KNNQL statements (-e, --file, or a REPL; see README),\n"
      "any of the six query shapes plus DML: INSERT INTO r VALUES\n"
      "(x, y), ...; DELETE FROM r WHERE ID = n; LOAD r FROM 'file';\n"
      "EXPLAIN <query>; shows the plan and EXPLAIN ANALYZE <query>;\n"
      "executes it and shows the span tree.\n"
      "serve runs the KNNQL network server (newline-delimited KNNQL in,\n"
      "JSONL out; see README \"Serving KNNQL\"); drive it with\n"
      "knnq_loadgen or any line-oriented TCP client. The SHUTDOWN verb\n"
      "and LOAD-over-the-wire are off unless --allow-remote-shutdown /\n"
      "--load-dir DIR (paths confined to DIR) are given.\n"
      "serve --data-dir DIR makes the server durable: every DML is\n"
      "write-ahead logged to DIR/wal.log (fsync per --wal-sync), the\n"
      "SNAPSHOT verb / --snapshot-interval-ops N cut point-in-time\n"
      "snapshots to DIR/catalog.snapshot, and a restart recovers the\n"
      "catalog from snapshot + WAL replay (see README \"Durability\").\n"
      "serve --http-port P adds GET /metrics /healthz /readyz /statusz on\n"
      "--http-host (default 127.0.0.1); /statusz samples its time series\n"
      "every --history-interval-ms, and /readyz answers 503 \"draining\"\n"
      "for --drain-linger-ms after a graceful shutdown's drain.\n"
      "query and serve: --naive runs the conceptually correct baseline\n"
      "plans; --cache-mb M enables the cross-query neighborhood cache\n"
      "with an M-MiB budget (0 = off); --index chooses each\n"
      "relation's index structure (results are identical for every\n"
      "choice);\n"
      "--slow-query-ms MS logs statements slower than MS as JSONL,\n"
      "--trace-sample-every N attaches a trace to every Nth statement\n"
      "(sampled slow queries log their span tree), --log-file F sends\n"
      "diagnostics to F instead of stderr, and --log-level\n"
      "debug|info|warn|error filters them.");
}

/// A command and every flag it reads.
struct Command {
  std::string name;
  int (*run)(const Args&);
  std::set<std::string_view> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate",
       CmdGenerate,
       {"--kind", "--n", "--clusters", "--per", "--seed", "--out"}},
      {"info", CmdInfo, {"--data", "--index"}},
      {"knn", CmdKnn, {"--data", "--at", "--k", "--index"}},
      {"query",
       CmdQuery,
       {"--data", "-e", "--file", "--json", "--naive", "--index",
        "--cache-mb", "--slow-query-ms",
        "--trace-sample-every", "--log-file", "--log-level"}},
      {"serve",
       CmdServe,
       {"--data", "--host", "--port", "--threads", "--naive",
        "--max-inflight", "--max-conn-inflight", "--max-request-bytes",
        "--idle-timeout-ms", "--max-connections", "--write-timeout-ms",
        "--shutdown-grace-ms", "--load-dir", "--allow-remote-shutdown",
        "--data-dir", "--wal-sync", "--wal-sync-interval-ops",
        "--snapshot-interval-ops", "--cache-mb", "--index",
        "--http-port", "--http-host",
        "--history-interval-ms", "--drain-linger-ms", "--slow-query-ms",
        "--trace-sample-every", "--log-file", "--log-level"}},
  };
  return commands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string name = argv[1];
  const auto& commands = Commands();
  const auto command =
      std::find_if(commands.begin(), commands.end(),
                   [&](const Command& c) { return c.name == name; });
  if (command == commands.end()) {
    PrintUsage();
    return 1;
  }
  auto args = Args::Parse(argc, argv, 2, command->name, command->flags);
  if (!args.ok()) return Fail(args.status());

  // SIMD A/B switch for every command: results are byte-identical with
  // or without the vectorized distance paths, so this only moves speed.
  if (args->Has("--no-simd")) SetSimdEnabled(false);
  return command->run(*args);
}
