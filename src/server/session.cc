#include "src/server/session.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <system_error>
#include <utility>
#include <variant>

#include "src/common/stopwatch.h"
#include "src/common/text_parse.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"

namespace knnq::server {

namespace {

/// Canonicalizes a statement for admin-verb matching: comments
/// dropped, whitespace and the terminating ';' trimmed, upper-cased.
/// Returns empty when the statement cannot be a verb (multiple words).
std::string AdminVerbOf(std::string_view text) {
  std::string flat;
  flat.reserve(text.size());
  bool comment = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (comment) {
      if (c == '\n') comment = false;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      comment = true;
      ++i;
      continue;
    }
    if (c == ';') break;
    flat += c;
  }
  const std::string_view trimmed = TrimWhitespace(flat);
  std::string verb;
  verb.reserve(trimmed.size());
  for (const char c : trimmed) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) return "";
    verb += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return verb;
}

/// The LOAD confinement check. Network peers name server-side files,
/// so the path must canonicalize (symlinks and ".." resolved; the
/// file itself may not exist yet, hence weakly_) into `load_dir`.
/// Relative paths resolve under `load_dir`, not the server's CWD; on
/// success `*path` holds the resolved form the engine should open.
Status ConfineLoadPath(std::string* path, const std::string& load_dir) {
  if (load_dir.empty()) {
    return Status::Unsupported("LOAD is disabled on this server: '" +
                               *path + "' refused (no load directory "
                               "configured)");
  }
  std::error_code ec;
  const std::filesystem::path root =
      std::filesystem::weakly_canonical(load_dir, ec);
  if (ec) {
    return Status::InvalidArgument("bad load directory '" + load_dir +
                                   "': " + ec.message());
  }
  const std::filesystem::path resolved = std::filesystem::weakly_canonical(
      root / std::filesystem::path(*path), ec);
  if (ec) {
    return Status::InvalidArgument("bad LOAD path '" + *path +
                                   "': " + ec.message());
  }
  const auto diff = std::mismatch(root.begin(), root.end(),
                                  resolved.begin(), resolved.end());
  if (diff.first != root.end()) {
    return Status::InvalidArgument("LOAD path '" + *path +
                                   "' escapes the load directory '" +
                                   load_dir + "'");
  }
  *path = resolved.string();
  return Status::Ok();
}

}  // namespace

Session::Session(QueryEngine* engine, const SessionLimits& limits,
                 ServerMetrics* metrics, AdmissionController* admission,
                 Callbacks callbacks)
    : engine_(engine),
      limits_(limits),
      metrics_(metrics),
      admission_(admission),
      callbacks_(std::move(callbacks)) {
  if (limits_.max_conn_inflight == 0) limits_.max_conn_inflight = 1;
}

bool Session::Consume(std::string_view bytes) {
  splitter_.Feed(bytes);
  while (auto statement = splitter_.Next()) {
    // The size limit applies to COMPLETE statements too: one that
    // arrived whole in a single read must not slip past the bound the
    // unterminated-statement check below enforces.
    if (limits_.max_request_bytes > 0 &&
        statement->size() > limits_.max_request_bytes) {
      return RejectOversized();
    }
    Dispatch(*statement);
  }
  if (limits_.max_request_bytes > 0 &&
      splitter_.pending_bytes() > limits_.max_request_bytes) {
    return RejectOversized();
  }
  return true;
}

bool Session::RejectOversized() {
  metrics_->oversized_requests.Add();
  metrics_->errors.Add();
  Respond(JsonErrorRecord(
      "", "",
      Status::InvalidArgument(
          "statement exceeds max_request_bytes=" +
          std::to_string(limits_.max_request_bytes) +
          "; closing connection")));
  return false;
}

void Session::FinishInput() {
  if (splitter_.PendingHasContent()) {
    metrics_->disconnects_mid_statement.Add();
  }
}

void Session::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t Session::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

void Session::OnQueryDone() {
  // Notify UNDER the lock: the drain path destroys this session as
  // soon as WaitIdle returns, so the notify must complete before the
  // waiter can possibly re-acquire the mutex and exit.
  std::lock_guard<std::mutex> lock(mu_);
  --pending_;
  if (pending_ == 0) idle_cv_.notify_all();
}

void Session::Respond(const std::string& record) {
  const std::uint64_t id = next_id_++;
  callbacks_.write(WithId(id, record));
  metrics_->responses.Add();
}

void Session::Dispatch(const std::string& text) {
  const std::string verb = AdminVerbOf(text);
  if (verb == "STATS" || verb == "METRICS" || verb == "PING" ||
      verb == "SHUTDOWN" || verb == "SNAPSHOT" || verb == "HISTORY") {
    metrics_->requests.Add();
    DispatchAdmin(verb);
    return;
  }

  Stopwatch parse_timer;
  const auto script = knnql::ParseScript(text);
  const double parse_seconds = parse_timer.ElapsedSeconds();
  metrics_->parse_latency.Record(parse_seconds);
  if (!script.ok()) {
    metrics_->requests.Add();
    metrics_->parse_errors.Add();
    metrics_->errors.Add();
    Respond(JsonErrorRecord("", "", script.status()));
    return;
  }
  if (script->empty()) {
    // Comments / a bare ';' frame no statement: nothing to answer,
    // no request counted, and no id consumed.
    return;
  }
  metrics_->requests.Add();
  const knnql::Statement& statement = script->front();
  if (std::holds_alternative<knnql::Query>(statement.body)) {
    DispatchQuery(statement,
                  static_cast<std::uint64_t>(parse_seconds * 1e9));
  } else {
    DispatchDml(statement);
  }
}

void Session::DispatchAdmin(std::string_view verb) {
  metrics_->admin_requests.Add();
  if (verb == "PING") {
    Respond("{\"status\": \"ok\", \"pong\": true}");
    return;
  }
  if (verb == "SHUTDOWN") {
    if (callbacks_.request_shutdown == nullptr) {
      metrics_->errors.Add();
      Respond(JsonErrorRecord(
          "", "",
          Status::Unsupported("SHUTDOWN is disabled on this server")));
      return;
    }
    Respond("{\"status\": \"ok\", \"shutting_down\": true}");
    callbacks_.request_shutdown();
    return;
  }
  if (verb == "SNAPSHOT") {
    if (callbacks_.snapshot == nullptr) {
      metrics_->errors.Add();
      Respond(JsonErrorRecord(
          "", "",
          Status::Unsupported("SNAPSHOT requires a durable server "
                              "(serve with --data-dir)")));
      return;
    }
    Respond(callbacks_.snapshot());
    return;
  }
  if (verb == "HISTORY") {
    Respond(callbacks_.render_history());
    return;
  }
  if (verb == "METRICS") {
    Respond(callbacks_.render_metrics());
    return;
  }
  Respond(callbacks_.render_stats());
}

void Session::DispatchQuery(const knnql::Statement& statement,
                            std::uint64_t parse_ns) {
  const auto& query = std::get<knnql::Query>(statement.body);
  Stopwatch bind_timer;
  auto spec = engine_->BindQuery(query);
  const double bind_seconds = bind_timer.ElapsedSeconds();
  metrics_->bind_latency.Record(bind_seconds);
  if (!spec.ok()) {
    metrics_->parse_errors.Add();
    metrics_->errors.Add();
    Respond(JsonErrorRecord("", "", spec.status()));
    return;
  }
  const std::string text = knnql::Unparse(*spec);

  if (statement.analyze) {
    // EXPLAIN ANALYZE executes synchronously on the connection thread,
    // like EXPLAIN: diagnostics should observe the engine, not contend
    // with the admission gate they are diagnosing.
    const EngineResult run = engine_->RunAnalyzed(
        *spec, parse_ns, static_cast<std::uint64_t>(bind_seconds * 1e9));
    if (!run.ok()) {
      metrics_->errors.Add();
      Respond(JsonErrorRecord("query", text, run.status));
      return;
    }
    metrics_->explains_ok.Add();
    Respond(JsonAnalyzeRecord(text, run));
    return;
  }

  if (statement.explain) {
    const auto explain = engine_->Explain(*spec);
    if (!explain.ok()) {
      metrics_->errors.Add();
      Respond(JsonErrorRecord("query", text, explain.status()));
      return;
    }
    metrics_->explains_ok.Add();
    Respond(JsonExplainRecord(text, *explain));
    return;
  }

  // Backpressure, connection-local bound first: a pipelined flood on
  // one connection must not starve the global gate.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ >= limits_.max_conn_inflight) {
      metrics_->overload_rejections.Add();
      metrics_->errors.Add();
      Respond(JsonErrorRecord(
          "query", text,
          Status::Unavailable(
              "overloaded: connection at max_conn_inflight=" +
              std::to_string(limits_.max_conn_inflight))));
      return;
    }
    ++pending_;
  }
  if (!admission_->TryAcquire()) {
    OnQueryDone();
    metrics_->overload_rejections.Add();
    metrics_->errors.Add();
    Respond(JsonErrorRecord(
        "query", text,
        Status::Unavailable(
            "overloaded: server at max_inflight=" +
            std::to_string(admission_->max_in_flight()))));
    return;
  }

  const std::uint64_t id = next_id_++;
  Stopwatch queued;
  const bool submitted = engine_->TrySubmitQuery(
      std::move(*spec), [this, id, text, queued](EngineResult run) {
        std::string record =
            run.ok() ? JsonQueryRecord(text, run)
                     : JsonErrorRecord("query", text, run.status);
        callbacks_.write(WithId(id, record));
        metrics_->responses.Add();
        if (run.ok()) {
          metrics_->queries_ok.Add();
        } else {
          metrics_->errors.Add();
        }
        metrics_->query_latency.Record(queued.ElapsedSeconds());
        admission_->Release();
        OnQueryDone();
      });
  if (!submitted) {
    // The pool's bounded queue refused; undo the reserved id so the
    // error response reuses it (ids stay dense and ordered).
    --next_id_;
    admission_->Release();
    OnQueryDone();
    metrics_->overload_rejections.Add();
    metrics_->errors.Add();
    Respond(JsonErrorRecord(
        "query", text,
        Status::Unavailable("overloaded: engine queue is full")));
  }
}

void Session::DispatchDml(const knnql::Statement& statement) {
  Stopwatch bind_timer;
  auto dml = knnql::BindDml(statement.body, /*catalog=*/nullptr);
  metrics_->bind_latency.Record(bind_timer.ElapsedSeconds());
  if (!dml.ok()) {
    metrics_->parse_errors.Add();
    metrics_->errors.Add();
    Respond(JsonErrorRecord("", "", dml.status()));
    return;
  }
  const std::string text = knnql::Unparse(*dml);

  if (dml->kind == knnql::DmlSpec::Kind::kLoad) {
    if (Status confined = ConfineLoadPath(&dml->path, limits_.load_dir);
        !confined.ok()) {
      metrics_->errors.Add();
      Respond(JsonErrorRecord("statement", text, confined));
      return;
    }
  }

  // DML is a barrier within the connection: every query this session
  // already admitted completes first, so a closed-loop client sees
  // strictly sequential semantics on its own connection.
  WaitIdle();

  Stopwatch timer;
  const EngineResult run = engine_->ExecuteDml(*dml);
  metrics_->mutation_latency.Record(timer.ElapsedSeconds());
  if (!run.ok()) {
    metrics_->errors.Add();
    Respond(JsonErrorRecord("statement", text, run.status));
    return;
  }
  metrics_->mutations_ok.Add();
  Respond(JsonDmlRecord(text, run));
}

}  // namespace knnq::server
