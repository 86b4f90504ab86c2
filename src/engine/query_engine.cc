#include "src/engine/query_engine.h"

#include <cstdint>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/stopwatch.h"
#include "src/data/dataset_io.h"
#include "src/engine/neighborhood_cache.h"
#include "src/lang/unparser.h"
#include "src/obs/log.h"

namespace knnq {

namespace {

std::size_t ResolveThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::unique_ptr<NeighborhoodCache> MakeCache(const EngineOptions& options) {
  if (options.cache_mb == 0) return nullptr;
  NeighborhoodCacheOptions cache_options;
  // Saturate, never wrap: a budget past the address space means "no
  // budget", not a few bytes.
  cache_options.capacity_bytes =
      options.cache_mb > (SIZE_MAX >> 20) ? SIZE_MAX : options.cache_mb << 20;
  return std::make_unique<NeighborhoodCache>(cache_options);
}

/// The one-line EngineResult::explain of a DML statement.
std::string MutationSummary(const char* verb, const std::string& relation,
                            const MutationOutcome& outcome) {
  return std::string("Mutation: ") + verb + " " + relation + " (" +
         std::to_string(outcome.rows_affected) + " rows, generation " +
         std::to_string(outcome.generation) + ")\n";
}

}  // namespace

QueryEngine::QueryEngine(Catalog catalog, EngineOptions options)
    : catalog_(std::move(catalog)),
      options_(std::move(options)),
      cache_(MakeCache(options_)),
      pool_(std::make_unique<ThreadPool>(ThreadPoolOptions{
          .num_threads = ResolveThreads(options_.num_threads),
          .max_queue = options_.pool_queue_limit})) {}

QueryEngine::~QueryEngine() = default;

std::size_t QueryEngine::num_threads() const { return pool_->size(); }

std::size_t QueryEngine::pool_queue_depth() const {
  return pool_->queue_depth();
}

EngineResult QueryEngine::Run(const QuerySpec& spec) const {
  return RunWithTrace(spec, SampleTrace());
}

EngineResult QueryEngine::RunAnalyzed(const QuerySpec& spec,
                                      std::uint64_t parse_ns,
                                      std::uint64_t bind_ns) const {
  auto trace = std::make_shared<obs::TraceContext>();
  if (parse_ns != 0) trace->AttachMeasured("parse", parse_ns);
  if (bind_ns != 0) trace->AttachMeasured("bind", bind_ns);
  return RunWithTrace(spec, std::move(trace));
}

std::shared_ptr<obs::TraceContext> QueryEngine::SampleTrace() const {
  const std::size_t every = options_.trace_sample_every;
  if (every == 0) return nullptr;
  const std::uint64_t n =
      sample_counter_.fetch_add(1, std::memory_order_relaxed);
  if (n % every != 0) return nullptr;
  return std::make_shared<obs::TraceContext>();
}

EngineResult QueryEngine::RunWithTrace(
    const QuerySpec& spec, std::shared_ptr<obs::TraceContext> trace) const {
  EngineResult result;
  {
    // Install the trace (possibly null — every ScopedSpan below is
    // then a no-op) for exactly the plan+execute window, on whichever
    // thread this query runs.
    obs::TraceScope scope(trace.get());
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    std::optional<Result<PhysicalPlan>> plan;
    {
      obs::ScopedSpan span("plan");
      plan.emplace(Optimize(catalog_, spec, options_.planner));
    }
    if (plan->ok()) {
      ExecutePlan(**plan, &result);
    } else {
      result.status = plan->status();
    }
  }
  if (trace != nullptr) {
    trace->Finish();
    result.trace = std::move(trace);
  }
  RecordQuery(result);
  if (options_.slow_query_ms > 0 &&
      result.stats.wall_seconds * 1e3 >= options_.slow_query_ms) {
    MaybeLogSlow(knnql::Unparse(spec), result);
  }
  return result;
}

void QueryEngine::MaybeLogSlow(const std::string& text,
                               const EngineResult& result) const {
  std::vector<obs::LogField> fields;
  fields.push_back(obs::LogField::Str("query", text));
  fields.push_back(
      obs::LogField::Num("wall_ms", result.stats.wall_seconds * 1e3));
  fields.push_back(obs::LogField::Raw("stats", result.stats.ToJson()));
  if (result.trace != nullptr) {
    fields.push_back(
        obs::LogField::Raw("trace", obs::ToJson(result.trace->root())));
  }
  obs::Logger::Global().Log(obs::LogLevel::kWarn, "slow_query", fields);
}

void QueryEngine::RecordQuery(const EngineResult& result) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++cumulative_.queries;
  if (!result.ok()) ++cumulative_.query_errors;
  cumulative_.totals.Merge(result.stats);
}

void QueryEngine::RecordMutation(const EngineResult& result) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++cumulative_.mutations;
  if (!result.ok()) ++cumulative_.mutation_errors;
  cumulative_.totals.Merge(result.stats);
}

EngineStatsSnapshot QueryEngine::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return cumulative_;
}

bool QueryEngine::TrySubmitQuery(
    QuerySpec spec, std::function<void(EngineResult)> done) const {
  return pool_->TrySubmit(
      [this, spec = std::move(spec), done = std::move(done)]() mutable {
        done(Run(spec));
      });
}

Result<std::string> QueryEngine::Explain(const QuerySpec& spec) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  const auto plan = Optimize(catalog_, spec, options_.planner);
  if (!plan.ok()) return plan.status();
  return plan->Explain();
}

Result<QuerySpec> QueryEngine::BindQuery(const knnql::Query& query) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return knnql::Bind(query, &catalog_);
}

void QueryEngine::ExecutePlan(const PhysicalPlan& plan,
                              EngineResult* result) const {
  obs::ScopedSpan span("execute");
  result->algorithm = plan.algorithm();
  auto output = plan.Execute(&result->stats, cache_.get());
  if (cache_ != nullptr) {
    result->stats.cache_bytes = cache_->size_bytes();
  }
  // The plan was built either way; keep its EXPLAIN for debugging
  // failed executions too.
  result->explain = plan.Explain(&result->stats);
  if (!output.ok()) {
    result->status = output.status();
    return;
  }
  result->output = std::move(output.value());
}

std::vector<EngineResult> QueryEngine::RunBatch(
    const std::vector<QuerySpec>& specs) const {
  std::vector<EngineResult> results(specs.size());
  if (specs.empty()) return results;

  // One task per query; slots keep submission order and isolate
  // failures. Each task takes its own reader lock, so a batch
  // interleaves with writers at query granularity while the queries
  // themselves never contend with each other.
  std::latch done(static_cast<std::ptrdiff_t>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const bool submitted = pool_->Submit([this, &specs, &results, &done, i] {
      results[i] = Run(specs[i]);
      done.count_down();
    });
    if (!submitted) {
      // The pool is stopping; the task will never run, so its slot
      // fails and its latch count settles here instead of deadlocking
      // the batch.
      results[i].status =
          Status::Unavailable("engine pool is shutting down");
      done.count_down();
    }
  }
  done.wait();
  return results;
}

EngineResult QueryEngine::ExecuteDml(const knnql::DmlSpec& dml) {
  std::shared_ptr<obs::TraceContext> trace = SampleTrace();
  EngineResult result;
  {
    obs::TraceScope scope(trace.get());
    result = [&]() -> EngineResult {
      switch (dml.kind) {
        case knnql::DmlSpec::Kind::kInsert: {
          std::vector<MutationOp> ops;
          ops.reserve(dml.rows.size());
          for (const Point& row : dml.rows) {
            ops.push_back(MutationOp::Insert(row.x, row.y));
          }
          return ExecuteDml(
              DmlRequest::MutateOps(dml.relation, std::move(ops)));
        }
        case knnql::DmlSpec::Kind::kDelete:
          return ExecuteDml(DmlRequest::MutateOps(
              dml.relation, {MutationOp::Erase(dml.id)}));
        case knnql::DmlSpec::Kind::kLoad: {
          obs::ScopedSpan span("load_points");
          auto points = LoadPoints(dml.path);
          span.Count("points_loaded",
                     points.ok() ? points.value().size() : 0);
          if (!points.ok()) {
            EngineResult failed;
            failed.is_mutation = true;
            failed.status = points.status();
            RecordMutation(failed);
            return failed;
          }
          return ExecuteDml(
              DmlRequest::Load(dml.relation, std::move(points.value())));
        }
      }
      EngineResult unknown;
      unknown.status = Status::Internal("unknown DML kind");
      return unknown;
    }();
  }
  if (trace != nullptr) {
    trace->Finish();
    result.trace = std::move(trace);
  }
  if (options_.slow_query_ms > 0 &&
      result.stats.wall_seconds * 1e3 >= options_.slow_query_ms) {
    MaybeLogSlow(knnql::Unparse(dml), result);
  }
  return result;
}

EngineResult QueryEngine::ExecuteDml(DmlRequest request) {
  EngineResult result;
  result.is_mutation = true;
  Stopwatch timer;
  std::uint64_t lsn = 0;
  bool logged = false;
  {
    obs::ScopedSpan span("dml_apply");
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    // The target's generation before the apply. The cache drops the
    // relation's entries only when the apply moved it: a 0-row DELETE
    // keeps them, a failed batch drops them iff it applied a prefix. A
    // relation LOAD creates has no entries yet.
    const Relation* target = nullptr;
    if (auto existing = catalog_.Get(request.relation); existing.ok()) {
      target = *existing;
    }
    const std::uint64_t generation_before =
        target != nullptr ? target->generation : 0;
    // Log-before-apply, but only requests that will actually touch
    // data: a mutate against an unknown relation fails below without
    // changing anything, so it earns no WAL record.
    if (options_.wal != nullptr &&
        (request.kind == DmlRequest::Kind::kLoad || target != nullptr)) {
      obs::ScopedSpan wal_span("wal_append");
      auto assigned = options_.wal->BeginCommit(request);
      if (!assigned.ok()) {
        result.status = assigned.status();
        RecordMutation(result);
        return result;
      }
      lsn = *assigned;
      logged = true;
    }
    auto outcome =
        request.kind == DmlRequest::Kind::kMutate
            ? catalog_.Mutate(request.relation, request.ops)
            : catalog_.LoadRelation(request.relation,
                                    std::move(request.points),
                                    options_.index_options);
    if (logged) catalog_.StampLsn(request.relation, lsn);
    if (cache_ != nullptr && target != nullptr &&
        target->generation != generation_before) {
      cache_->InvalidateRelation(target->index.get());
    }
    if (!outcome.ok()) {
      result.status = outcome.status();
      lock.unlock();
      if (logged) options_.wal->EndCommit(lsn, /*applied=*/false);
      RecordMutation(result);
      return result;
    }
    result.rows_affected = outcome->rows_affected;
    result.explain = MutationSummary(
        request.kind == DmlRequest::Kind::kMutate ? "MUTATE" : "LOAD",
        request.relation, *outcome);
  }
  // Outside the catalog lock: EndCommit may decide to cut a snapshot,
  // which quiesces commits and reads the catalog itself.
  if (logged) options_.wal->EndCommit(lsn, /*applied=*/true);
  result.stats.wall_seconds = timer.ElapsedSeconds();
  RecordMutation(result);
  return result;
}

}  // namespace knnq
