// The in-process replay: the served statements run again through each
// layer's public functions - knnql::ParseScript, QueryEngine::BindQuery,
// QueryEngine::Run / ExecuteDml, server::JsonQueryRecord - in the
// server's order, by as many concurrent callers as the served run had
// connections. Traced, it records one span around every call (plus
// index builds, WAL commits and recovery) for the per-layer numbers;
// untraced, it is the reference the served results are compared with
// and the baseline of the tracing overhead.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/client.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"
#include "src/common/status.h"
#include "src/core/exec_stats.h"
#include "src/engine/neighborhood_cache.h"
#include "src/planner/physical_plan.h"

namespace perfbench {

/// Span names, in the server's order.
enum SpanName : std::uint32_t {
  kRequest,
  kParse,      // lang.parse: knnql::ParseScript
  kBind,       // lang.bind: QueryEngine::BindQuery / knnql::BindDml
  kRun,        // engine.run: QueryEngine::Run
  kDml,        // engine.dml: QueryEngine::ExecuteDml
  kCommit,     // durability.commit: WalSink Begin/EndCommit
  kRender,     // server.render: Unparse + JsonQueryRecord / JsonDmlRecord
  kIndexBuild, // index.build: Catalog::AddRelation
  kRecover,    // durability.recover: Open + SeedCatalog + Recover
  kSpanNames,
};
const char* SpanNameText(std::uint32_t name);

struct ReplayConfig {
  std::map<std::string, std::string> files;  // Relation -> CSV.
  std::size_t threads = 1;                   // Server --threads.
  std::size_t cache_mb = 0;                  // Server --cache-mb.
  bool traced = false;
  /// Non-empty: a DurabilityManager (wal-sync always) in this fresh
  /// directory behind the benchmark's timing WalSink.
  std::string durable_dir;
};

/// One replayed statement (a move is two).
struct StatementRun {
  std::uint32_t job = 0;  // Index into the served jobs.
  bool query = false;
  bool ok = false;
  std::uint64_t hash = 0;  // ResultHash of a query's record.
  std::size_t response_bytes = 0;
  knnq::Algorithm algorithm = knnq::Algorithm::kTwoSelectsNaive;
  knnq::ExecStats stats;
  std::uint32_t root_span = Span::kNoParent;  // Traced runs only.
};

struct ReplayResult {
  std::vector<StatementRun> statements;
  std::vector<Span> spans;  // Traced runs only.
  double wall_seconds = 0;  // The replay phase, all callers.
  knnq::NeighborhoodCacheStats cache;
  std::map<std::string, double> build_ms;  // Per relation (traced).
  double recover_seconds = 0;              // Durable + drill only.
  std::uint64_t replayed_records = 0;
  std::size_t errors = 0;
};

/// Replays `streams[c]` (job indexes into `jobs`) on caller c. With a
/// durable config, `drill` jobs then run after a SNAPSHOT, the engine
/// is dropped without a final snapshot (a crash), and recovery is
/// timed.
knnq::Result<ReplayResult> Replay(
    const ReplayConfig& config, const StatementPool& pool,
    const std::vector<JobRecord>& jobs,
    const std::vector<std::vector<std::uint32_t>>& streams,
    const std::vector<std::uint32_t>& drill);

/// Runs `statements` one by one on a fresh in-memory engine over
/// `files` after applying `moves` (DML texts) in order; returns each
/// statement's ResultHash. The reference of the restart check.
knnq::Result<std::vector<std::uint64_t>> ReferenceHashes(
    const std::map<std::string, std::string>& files,
    const std::vector<std::string>& moves,
    const std::vector<std::string>& statements);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
