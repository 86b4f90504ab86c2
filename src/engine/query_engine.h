// QueryEngine: the serving facade of the repository.
//
// Owns a Catalog, the PlannerOptions every query is planned with, and a
// fixed-size worker thread pool. Run() plans and executes one query;
// RunBatch() fans a batch out over the workers and returns results in
// submission order, with per-query errors isolated to their slot.
// ExecuteDml() is the single write path (inserts/deletes/loads).
//
// Statements arrive bound, never as text: both front ends
// (server::Session and `knnq_cli query`) parse KNNQL with
// knnql::ParseScript, bind queries through BindQuery and DML with
// knnql::BindDml(body, nullptr), and ExecuteDml decides under the
// writer lock whether a DML target exists.
//
// Concurrency model: SpatialIndex instances are read-thread-safe with
// no synchronization as long as no write is in flight, so the engine
// serializes writers against readers with one std::shared_mutex. Every
// Run()/RunBatch() slot holds a reader lock for its whole
// plan+execute; DML holds the writer lock and mutates indexes in
// place. Reads scale across cores (shared locks don't contend), writes
// apply between queries.
//
// The one shared mutable structure is optional: with
// EngineOptions::cache_mb > 0 the engine owns a NeighborhoodCache, a
// lock-striped cross-query memo of getkNN results, consulted by every
// evaluator. A mutation invalidates only the mutated relation's cache
// entries. Cached execution returns byte-identical results (GetKnn is
// deterministic; restricted searches bypass the cache).

#ifndef KNNQ_SRC_ENGINE_QUERY_ENGINE_H_
#define KNNQ_SRC_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/exec_stats.h"
#include "src/engine/thread_pool.h"
#include "src/obs/trace.h"
#include "src/index/index_factory.h"
#include "src/lang/binder.h"
#include "src/planner/catalog.h"
#include "src/planner/optimizer.h"
#include "src/planner/physical_plan.h"

namespace knnq {

class NeighborhoodCache;  // src/engine/neighborhood_cache.h
struct DmlRequest;

/// Durability hook the serving tier plugs into the engine's single
/// write path (EngineOptions::wal; src/durability implements it).
///
/// BeginCommit runs inside the writer's critical section, after the
/// engine decided the request will apply but before any data changes:
/// the sink makes the request durable (or, during startup replay,
/// hands back the replayed record's original LSN without writing) and
/// returns the log sequence number the commit carries. A not-ok result
/// aborts the DML with that status. EndCommit pairs with every
/// successful BeginCommit once the apply finished and the engine
/// dropped its catalog lock; `applied` says whether the batch
/// applied cleanly (a failed batch may still have applied a prefix —
/// replaying its record reproduces exactly that prefix).
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual Result<std::uint64_t> BeginCommit(const DmlRequest& request) = 0;
  virtual void EndCommit(std::uint64_t lsn, bool applied) = 0;
};

/// Engine construction knobs — the one place engine-level tuning
/// lives. Defaults are the zero-configuration single-process engine:
/// hardware threads, no cache, unbounded pool queue.
struct EngineOptions {
  /// Worker threads for RunBatch. 0 means hardware concurrency.
  std::size_t num_threads = 0;

  /// Byte budget (in MiB) of the engine-owned cross-query neighborhood
  /// cache (src/engine/neighborhood_cache.h); 0 disables it. A budget
  /// whose byte count would not fit in size_t saturates to SIZE_MAX.
  /// Helps skewed batches (repeated focal points / repeated join specs)
  /// and is near-neutral on uniform ones; see README "Cross-query
  /// neighborhood cache" for sizing guidance.
  std::size_t cache_mb = 0;

  /// Bound on the worker pool's queue of not-yet-running tasks; 0
  /// means unbounded (the RunBatch default). Servers set it so
  /// TrySubmitQuery refuses work under overload instead of queueing
  /// without limit.
  std::size_t pool_queue_limit = 0;

  /// Planning heuristics applied to every query.
  PlannerOptions planner;

  /// Index construction parameters for relations the engine creates
  /// itself (DML LOAD on an unknown name). Relations of the adopted
  /// catalog keep the indexes they were built with.
  IndexOptions index_options;

  /// Slow-query log threshold in milliseconds: any statement whose
  /// wall time reaches it is logged (obs::Logger, event "slow_query")
  /// with its canonical KNNQL, ExecStats and — when the statement was
  /// sampled for tracing — its span tree. 0 disables the log.
  double slow_query_ms = 0.0;

  /// Trace sampling: every Nth statement (queries and DML alike)
  /// carries a full span tree on EngineResult::trace. 0 disables
  /// sampling; EXPLAIN ANALYZE always traces regardless.
  std::size_t trace_sample_every = 0;

  /// Write-ahead log sink: every applying ExecuteDml commit flows
  /// through it (BeginCommit before the write, EndCommit after). Null
  /// (default) keeps the engine purely in-memory. Must outlive the
  /// engine.
  WalSink* wal = nullptr;
};

/// One engine-level DML request — the single write path KNNQL INSERT /
/// DELETE / LOAD lowers into.
struct DmlRequest {
  enum class Kind {
    /// Apply `ops` in order to relation `relation`.
    kMutate,
    /// Replace (or create) relation `relation` with `points`.
    kLoad,
  };
  Kind kind = Kind::kMutate;
  std::string relation;
  /// kMutate: the ordered write batch.
  std::vector<MutationOp> ops;
  /// kLoad: the new contents.
  PointSet points;

  static DmlRequest MutateOps(std::string relation,
                              std::vector<MutationOp> ops) {
    return DmlRequest{.kind = Kind::kMutate,
                      .relation = std::move(relation),
                      .ops = std::move(ops),
                      .points = {}};
  }
  static DmlRequest Load(std::string relation, PointSet points) {
    return DmlRequest{.kind = Kind::kLoad,
                      .relation = std::move(relation),
                      .ops = {},
                      .points = std::move(points)};
  }
};

/// Outcome of one statement. A failed plan or execution sets `status`
/// and leaves the rest defaulted; a batch never fails as a whole.
struct EngineResult {
  Status status = Status::Ok();
  /// Valid only when status.ok() (queries only; empty for DML).
  QueryOutput output;
  /// The algorithm the optimizer chose (valid when planning succeeded).
  Algorithm algorithm = Algorithm::kTwoSelectsNaive;
  /// EXPLAIN rendering of the executed plan (queries), or a one-line
  /// mutation summary (DML).
  std::string explain;
  /// Uniform execution counters plus wall time.
  ExecStats stats;
  /// True when this slot was a DML statement (INSERT/DELETE/LOAD).
  bool is_mutation = false;
  /// DML only: rows inserted, deleted or loaded.
  std::size_t rows_affected = 0;
  /// The statement's span tree — non-null only when it was traced
  /// (EXPLAIN ANALYZE, or sampled via trace_sample_every).
  std::shared_ptr<const obs::TraceContext> trace;

  bool ok() const { return status.ok(); }
};

/// Cumulative serving counters since engine construction, for STATS
/// endpoints and monitoring. A point-in-time copy; totals merge the
/// ExecStats of every statement the engine executed (failed ones too:
/// their partial work happened).
struct EngineStatsSnapshot {
  std::uint64_t queries = 0;
  std::uint64_t query_errors = 0;
  std::uint64_t mutations = 0;
  std::uint64_t mutation_errors = 0;
  ExecStats totals;
};

/// Plans and executes queries — and applies writes — against an owned
/// catalog, under the concurrency protocol described above.
class QueryEngine {
 public:
  /// Takes ownership of `catalog`. Relations stay mutable through
  /// ExecuteDml only; all other entry points are reads.
  explicit QueryEngine(Catalog catalog, EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Callers inspecting the catalog while writers may be active must
  /// not hold the returned reference across a mutation.
  const Catalog& catalog() const { return catalog_; }
  const EngineOptions& options() const { return options_; }
  std::size_t num_threads() const;

  /// Tasks queued on the worker pool and not yet running - the
  /// saturation gauge behind knnq_engine_pool_queue_depth.
  std::size_t pool_queue_depth() const;

  /// The engine's cross-query neighborhood cache; null when cache_mb
  /// is 0. Exposed for stats inspection (hit rate, footprint) and
  /// explicit Clear().
  NeighborhoodCache* neighborhood_cache() const { return cache_.get(); }

  /// Plans and executes one query on the calling thread under the
  /// reader lock, so it is safe to call concurrently with DML.
  EngineResult Run(const QuerySpec& spec) const;

  /// Run with tracing forced on: the EXPLAIN ANALYZE path. Executes
  /// normally and returns the result with EngineResult::trace set to
  /// the statement's finished span tree. The front end that parsed and
  /// bound the statement may pass those pre-measured durations; nonzero
  /// values appear as "parse" / "bind" spans ahead of the live tree.
  EngineResult RunAnalyzed(const QuerySpec& spec,
                           std::uint64_t parse_ns = 0,
                           std::uint64_t bind_ns = 0) const;

  /// Executes `specs` concurrently on the worker pool. results[i] is
  /// the outcome of specs[i]; a bad query (unknown relation, k = 0)
  /// fails only its own slot.
  std::vector<EngineResult> RunBatch(
      const std::vector<QuerySpec>& specs) const;

  /// Asynchronous single-query execution, the server's dispatch
  /// primitive: plans and executes `spec` on the worker pool and
  /// invokes `done` with the outcome on the worker thread. `done` must
  /// not throw and must outlive the engine's pool (servers drain
  /// in-flight work before destroying the engine). Refuses instead of
  /// waiting when the pool's bounded queue
  /// (EngineOptions::pool_queue_limit) is full or the pool is
  /// stopping: returns false and never invokes `done`. The
  /// backpressure hook admission control maps to an `overloaded` wire
  /// error.
  bool TrySubmitQuery(QuerySpec spec,
                      std::function<void(EngineResult)> done) const;

  /// Plans `spec` without executing it: the EXPLAIN path. Returns the
  /// plan's rendering.
  Result<std::string> Explain(const QuerySpec& spec) const;

  /// Binds one parsed KNNQL query against the live catalog under the
  /// reader lock, so servers can bind incrementally while writers run.
  Result<QuerySpec> BindQuery(const knnql::Query& query) const;

  /// THE write path: applies one DML request in place under the writer
  /// lock. kMutate applies the ops in order (ops before a failing one
  /// stay applied); kLoad replaces or creates the relation. The
  /// result's status carries any failure; rows_affected and explain
  /// summarize the applied writes.
  EngineResult ExecuteDml(DmlRequest request);

  /// Applies one bound KNNQL DML statement by lowering it to a
  /// DmlRequest (kInsert/kDelete -> kMutate ops, kLoad -> LoadPoints +
  /// kLoad). The shared execution path of the CLI and the network
  /// server.
  EngineResult ExecuteDml(const knnql::DmlSpec& dml);

  /// Cumulative counters over every statement this engine executed.
  EngineStatsSnapshot StatsSnapshot() const;

 private:
  /// The shared tail of Run/RunAnalyzed: installs `trace` (may be
  /// null) on this thread, plans and executes under the reader lock,
  /// finishes the trace, records stats and feeds the slow-query log.
  EngineResult RunWithTrace(const QuerySpec& spec,
                            std::shared_ptr<obs::TraceContext> trace) const;

  /// Non-null every trace_sample_every-th call; null otherwise.
  std::shared_ptr<obs::TraceContext> SampleTrace() const;

  /// Emits the slow-query log line when `result` crossed the
  /// threshold. `text` is the statement's canonical KNNQL.
  void MaybeLogSlow(const std::string& text,
                    const EngineResult& result) const;

  /// Executes an optimized plan into `result`.
  void ExecutePlan(const PhysicalPlan& plan, EngineResult* result) const;

  /// Folds one finished statement into the cumulative counters.
  void RecordQuery(const EngineResult& result) const;
  void RecordMutation(const EngineResult& result) const;

  Catalog catalog_;
  EngineOptions options_;
  /// Shared across all workers; internally synchronized.
  std::unique_ptr<NeighborhoodCache> cache_;
  /// Queries shared, mutations exclusive.
  mutable std::shared_mutex catalog_mu_;
  /// Cumulative serving counters (StatsSnapshot); separate lock so the
  /// hot path never touches catalog_mu_ for bookkeeping.
  mutable std::mutex stats_mu_;
  mutable EngineStatsSnapshot cumulative_;
  /// Statement counter driving trace_sample_every.
  mutable std::atomic<std::uint64_t> sample_counter_{0};
  /// Declared LAST: destruction joins the workers first, so an async
  /// TrySubmitQuery task still in flight can never touch an
  /// already-destroyed mutex, cache or catalog.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_ENGINE_QUERY_ENGINE_H_
