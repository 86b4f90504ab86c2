#include "perfbench/src/replay.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <variant>

#include "src/data/dataset_io.h"
#include "src/durability/durability_manager.h"
#include "src/engine/query_engine.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"
#include "src/server/wire.h"

namespace perfbench {

using knnq::Result;
using knnq::Status;

namespace {

/// The spans of one replay thread. Begin/End do nothing when tracing
/// is off, so the untraced replay reads no clocks per call.
class Tracer {
 public:
  Tracer(bool on, std::vector<Span>* spans) : on_(on), spans_(spans) {}

  std::uint32_t Begin(std::uint32_t name) {
    if (!on_) return Span::kNoParent;
    const auto index = static_cast<std::uint32_t>(spans_->size());
    spans_->push_back(Span{name, current_, request_, 0, 0});
    current_ = index;
    (*spans_)[index].start = NowNs();
    return index;
  }
  void End(std::uint32_t index) {
    if (!on_) return;
    const std::int64_t now = NowNs();
    (*spans_)[index].end = now;
    current_ = (*spans_)[index].parent;
  }
  void set_request(std::uint32_t request) { request_ = request; }

 private:
  bool on_;
  std::vector<Span>* spans_;
  std::uint32_t current_ = Span::kNoParent;
  std::uint32_t request_ = 0;
};

/// The tracer of the replay thread currently inside an engine call;
/// the WalSink wrapper records its commit spans there.
thread_local Tracer* t_tracer = nullptr;

/// The benchmark's WalSink: forwards every commit to the durability
/// manager and records a durability.commit span around each call.
class TimedWalSink : public knnq::WalSink {
 public:
  explicit TimedWalSink(knnq::WalSink* inner) : inner_(inner) {}

  Result<std::uint64_t> BeginCommit(const knnq::DmlRequest& request) override {
    Tracer* tracer = t_tracer;
    const std::uint32_t span =
        tracer != nullptr ? tracer->Begin(kCommit) : Span::kNoParent;
    auto lsn = inner_->BeginCommit(request);
    if (tracer != nullptr) tracer->End(span);
    return lsn;
  }
  void EndCommit(std::uint64_t lsn, bool applied) override {
    Tracer* tracer = t_tracer;
    const std::uint32_t span =
        tracer != nullptr ? tracer->Begin(kCommit) : Span::kNoParent;
    inner_->EndCommit(lsn, applied);
    if (tracer != nullptr) tracer->End(span);
  }

 private:
  knnq::WalSink* inner_;
};

/// The serve command's engine configuration.
knnq::EngineOptions ServeOptions(const ReplayConfig& config,
                                 knnq::WalSink* wal) {
  knnq::EngineOptions options;
  options.num_threads = config.threads;
  options.cache_mb = config.cache_mb;
  options.pool_queue_limit = 64 * 2;
  options.wal = wal;
  return options;
}

/// Loads every CSV and builds its index the way `serve --data` does;
/// each Catalog::AddRelation is one index.build span.
Status BuildCatalog(const std::map<std::string, std::string>& files,
                    Tracer* tracer, std::vector<Span>* spans,
                    knnq::Catalog* catalog,
                    std::map<std::string, double>* build_ms) {
  for (const auto& [name, path] : files) {
    auto points = knnq::LoadPoints(path);
    if (!points.ok()) return points.status();
    const std::uint32_t span = tracer->Begin(kIndexBuild);
    const Status added = catalog->AddRelation(name, std::move(*points));
    tracer->End(span);
    if (!added.ok()) return added;
    if (span != Span::kNoParent) {
      (*build_ms)[name] =
          static_cast<double>((*spans)[span].end - (*spans)[span].start) /
          1e6;
    }
  }
  return Status::Ok();
}

/// Runs one statement the way Session::Dispatch does and records it.
void RunStatement(knnq::QueryEngine& engine, const std::string& text,
                  std::uint32_t job, std::uint64_t id, Tracer& tracer,
                  StatementRun* out) {
  out->job = job;
  out->root_span = tracer.Begin(kRequest);
  std::uint32_t span = tracer.Begin(kParse);
  auto script = knnq::knnql::ParseScript(text);
  tracer.End(span);
  std::string record;
  if (script.ok() && script->size() == 1 &&
      std::holds_alternative<knnq::knnql::Query>(script->front().body)) {
    out->query = true;
    span = tracer.Begin(kBind);
    auto spec = engine.BindQuery(
        std::get<knnq::knnql::Query>(script->front().body));
    tracer.End(span);
    if (spec.ok()) {
      span = tracer.Begin(kRun);
      const knnq::EngineResult run = engine.Run(*spec);
      tracer.End(span);
      span = tracer.Begin(kRender);
      const std::string canonical = knnq::knnql::Unparse(*spec);
      record = run.ok()
                   ? knnq::server::JsonQueryRecord(canonical, run)
                   : knnq::server::JsonErrorRecord("query", canonical,
                                                   run.status);
      record = knnq::server::WithId(id, record);
      tracer.End(span);
      out->ok = run.ok();
      out->algorithm = run.algorithm;
      out->stats = run.stats;
    }
  } else if (script.ok() && script->size() == 1) {
    span = tracer.Begin(kBind);
    auto dml = knnq::knnql::BindDml(script->front().body, nullptr);
    tracer.End(span);
    if (dml.ok()) {
      span = tracer.Begin(kDml);
      const knnq::EngineResult run = engine.ExecuteDml(*dml);
      tracer.End(span);
      span = tracer.Begin(kRender);
      const std::string canonical = knnq::knnql::Unparse(*dml);
      record = run.ok() ? knnq::server::JsonDmlRecord(canonical, run)
                        : knnq::server::JsonErrorRecord("statement",
                                                        canonical, run.status);
      record = knnq::server::WithId(id, record);
      tracer.End(span);
      out->ok = run.ok();
    }
  }
  tracer.End(out->root_span);
  out->response_bytes = record.size() + 1;
  if (out->query && out->ok) out->hash = ResultHash(record);
}

/// Splits a job's text into its statements (each ends in ';').
std::vector<std::string> SplitJob(const std::string& text) {
  auto parts = knnq::server::SplitStatements(text);
  return parts.ok() ? *parts : std::vector<std::string>{text};
}

}  // namespace

const char* SpanNameText(std::uint32_t name) {
  static const char* const kNames[] = {
      "request",      "lang.parse",    "lang.bind",
      "engine.run",   "engine.dml",    "durability.commit",
      "server.render", "index.build",  "durability.recover"};
  return name < kSpanNames ? kNames[name] : "?";
}

Result<ReplayResult> Replay(
    const ReplayConfig& config, const StatementPool& pool,
    const std::vector<JobRecord>& jobs,
    const std::vector<std::vector<std::uint32_t>>& streams,
    const std::vector<std::uint32_t>& drill) {
  ReplayResult result;
  std::vector<Span> setup_spans;
  Tracer setup(config.traced, &setup_spans);

  std::unique_ptr<knnq::durability::DurabilityManager> manager;
  std::unique_ptr<TimedWalSink> sink;
  const auto open_manager = [&]() -> Status {
    knnq::durability::DurabilityOptions options;
    options.data_dir = config.durable_dir;
    options.sync = knnq::durability::WalSyncPolicy::kAlways;
    auto opened = knnq::durability::DurabilityManager::Open(options);
    if (!opened.ok()) return opened.status();
    manager = std::move(*opened);
    sink = std::make_unique<TimedWalSink>(manager.get());
    return Status::Ok();
  };
  const bool durable = !config.durable_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(config.durable_dir, ec);
    std::filesystem::create_directories(config.durable_dir, ec);
    if (Status s = open_manager(); !s.ok()) return s;
  }

  knnq::Catalog catalog;
  if (Status s = BuildCatalog(config.files, &setup, &setup_spans, &catalog,
                              &result.build_ms);
      !s.ok()) {
    return s;
  }
  auto engine = std::make_unique<knnq::QueryEngine>(
      std::move(catalog), ServeOptions(config, sink.get()));
  if (durable) {
    auto report = manager->Recover(engine.get());  // Baseline snapshot.
    if (!report.ok()) return report.status();
  }

  // Statements get global ids in stream order so spans group by them.
  std::vector<std::vector<StatementRun>> runs(streams.size());
  std::vector<std::vector<Span>> spans(streams.size());
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::int64_t> finished(streams.size());
  std::vector<std::thread> callers;
  std::vector<std::uint32_t> first_request(streams.size() + 1, 0);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    std::size_t n = 0;
    for (std::uint32_t job : streams[c]) n += jobs[job].job.statements;
    first_request[c + 1] = first_request[c] + static_cast<std::uint32_t>(n);
    if (config.traced) {
      // Touch the span memory up front: a page fault inside a request
      // would read as time no layer owns.
      spans[c].resize(n * 8);
      spans[c].clear();
    }
    runs[c].reserve(n);
  }
  std::int64_t start = 0;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    callers.emplace_back([&, c] {
      Tracer tracer(config.traced, &spans[c]);
      t_tracer = &tracer;
      std::uint32_t request = first_request[c];
      std::uint64_t id = 1;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint32_t job : streams[c]) {
        for (const std::string& text : SplitJob(pool[jobs[job].job.statement])) {
          tracer.set_request(request++);
          runs[c].emplace_back();
          RunStatement(*engine, text, job, id++, tracer, &runs[c].back());
        }
      }
      finished[c] = NowNs();
      t_tracer = nullptr;
    });
  }
  while (ready.load() < streams.size()) std::this_thread::yield();
  start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : callers) t.join();
  std::int64_t end = start;
  for (std::int64_t f : finished) end = std::max(end, f);
  result.wall_seconds = static_cast<double>(end - start) / 1e9;
  if (engine->neighborhood_cache() != nullptr) {
    result.cache = engine->neighborhood_cache()->GetStats();
  }

  // Merge per-caller spans (parents are caller-local indexes).
  result.spans = setup_spans;
  setup_spans.clear();
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const auto offset = static_cast<std::uint32_t>(result.spans.size());
    for (Span span : spans[c]) {
      if (span.parent != Span::kNoParent) span.parent += offset;
      result.spans.push_back(span);
    }
    for (StatementRun run : runs[c]) {
      if (run.root_span != Span::kNoParent) run.root_span += offset;
      if (!run.ok) ++result.errors;
      result.statements.push_back(run);
    }
  }

  if (durable && !drill.empty()) {
    // The recovery drill: snapshot, a fixed number of further moves,
    // then a crash (the engine and manager dropped without a final
    // snapshot) and a timed recovery from the data dir.
    if (auto cut = manager->Snapshot(engine.get()); !cut.ok()) {
      return cut.status();
    }
    std::vector<Span> drill_spans;
    Tracer drill_tracer(false, &drill_spans);
    t_tracer = nullptr;
    std::uint64_t id = 1;
    for (std::uint32_t job : drill) {
      for (const std::string& text : SplitJob(pool[jobs[job].job.statement])) {
        StatementRun run;
        RunStatement(*engine, text, job, id++, drill_tracer, &run);
        if (!run.ok) ++result.errors;
      }
    }
    engine.reset();
    sink.reset();
    manager.reset();

    const std::int64_t t0 = NowNs();
    const std::uint32_t span = setup.Begin(kRecover);
    if (Status s = open_manager(); !s.ok()) return s;
    knnq::Catalog recovered;
    if (Status s = manager->SeedCatalog(&recovered); !s.ok()) return s;
    engine = std::make_unique<knnq::QueryEngine>(
        std::move(recovered), ServeOptions(config, sink.get()));
    auto report = manager->Recover(engine.get());
    setup.End(span);
    result.recover_seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (!report.ok()) return report.status();
    result.replayed_records = report->replayed_records;
    if (span != Span::kNoParent) result.spans.push_back(setup_spans[span]);
  }
  return result;
}

Result<std::vector<std::uint64_t>> ReferenceHashes(
    const std::map<std::string, std::string>& files,
    const std::vector<std::string>& moves,
    const std::vector<std::string>& statements) {
  knnq::Catalog catalog;
  std::map<std::string, double> unused;
  std::vector<Span> no_spans;
  Tracer off(false, &no_spans);
  if (Status s = BuildCatalog(files, &off, &no_spans, &catalog, &unused);
      !s.ok()) {
    return s;
  }
  knnq::QueryEngine engine(std::move(catalog), knnq::EngineOptions{});
  std::uint64_t id = 1;
  for (const std::string& move : moves) {
    for (const std::string& text : SplitJob(move)) {
      StatementRun run;
      RunStatement(engine, text, 0, id++, off, &run);
      if (!run.ok) return Status::Internal("reference move failed: " + text);
    }
  }
  std::vector<std::uint64_t> hashes;
  for (const std::string& text : statements) {
    StatementRun run;
    RunStatement(engine, text, 0, id++, off, &run);
    hashes.push_back(run.ok ? run.hash : 0);
  }
  return hashes;
}

}  // namespace perfbench
