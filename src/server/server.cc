#include "src/server/server.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/neighborhood_cache.h"
#include "src/obs/process_stats.h"

namespace knnq::server {

namespace {

/// What a connection refused at max_connections reads before EOF: one
/// structured `overloaded` error line.
std::string RefusalLine(std::size_t max_connections) {
  return WithId(1, JsonErrorRecord(
                       "", "",
                       Status::Unavailable(
                           "overloaded: server at max_connections=" +
                           std::to_string(max_connections)))) +
         "\n";
}

}  // namespace

Server::Server(QueryEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.max_inflight),
      start_time_(std::chrono::steady_clock::now()),
      listener_(
          TcpListenerOptions{
              .host = options_.host,
              .port = options_.port,
              .max_connections = options_.max_connections,
              .refusal =
                  [this] {
                    metrics_.connection_rejections.Add();
                    return RefusalLine(options_.max_connections);
                  },
              .write_timeout_ms = options_.write_timeout_ms,
              .sndbuf_bytes = options_.sndbuf_bytes},
          [this](TcpConnection& conn) { Serve(conn); }) {
  metrics_.RegisterAll(&registry_);
  registry_.RegisterCallbackGauge(
      "knnq_server_active_connections", "Currently open connections.",
      [this] { return static_cast<double>(active_connections()); });
  registry_.RegisterCallbackGauge(
      "knnq_server_in_flight", "Queries executing right now.",
      [this] { return static_cast<double>(admission_.in_flight()); });
  registry_.RegisterCallbackGauge(
      "knnq_engine_pool_queue_depth",
      "Engine worker-pool tasks queued and not yet running.", [this] {
        return static_cast<double>(engine_->pool_queue_depth());
      });
  registry_.RegisterCallbackGauge(
      "knnq_engine_pool_threads", "Engine worker-pool threads.", [this] {
        return static_cast<double>(engine_->num_threads());
      });

  // Self-instrumentation: build identity and process vitals, exposed
  // through the SAME registry as everything else so the METRICS verb
  // and GET /metrics render them identically.
  registry_.RegisterCallbackGauge(
      "knnq_build_info", "Always 1. Build: " + obs::BuildInfoLine() + ".",
      [] { return 1.0; });
  registry_.RegisterCallbackGauge(
      "knnq_process_uptime_seconds",
      "Whole seconds since server construction (floored so two scrapes "
      "within one second render identically).",
      [this] {
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - start_time_)
                .count());
      });
  registry_.RegisterCallbackGauge(
      "knnq_process_resident_memory_bytes", "Resident set size.",
      [] { return obs::ProcessRssBytes(); });
  registry_.RegisterCallbackGauge("knnq_process_open_fds",
                                  "Open file descriptors.",
                                  [] { return obs::ProcessOpenFds(); });
  registry_.RegisterCallbackGauge("knnq_process_threads",
                                  "OS threads in this process.",
                                  [] { return obs::ProcessThreadCount(); });
  registry_.RegisterCallbackCounter(
      "knnq_http_requests_total",
      "HTTP observability requests answered (any status).", [this] {
        return http_ != nullptr ? http_->requests_served() : 0;
      });
  registry_.RegisterCallbackGauge(
      "knnq_http_active_connections",
      "Open HTTP observability connections (0 while the plane is off).",
      [this] {
        return static_cast<double>(
            http_ != nullptr ? http_->active_connections() : 0);
      });

  // Engine cumulative totals, snapshotted at scrape time. One
  // StatsSnapshot per metric is fine: METRICS is a scrape path, not a
  // hot path.
  const auto engine_counter = [this](std::uint64_t EngineStatsSnapshot::*
                                         field) {
    return [this, field] {
      return static_cast<std::uint64_t>(engine_->StatsSnapshot().*field);
    };
  };
  const auto total_counter = [this](std::size_t ExecStats::*field) {
    return [this, field] {
      return static_cast<std::uint64_t>(
          engine_->StatsSnapshot().totals.*field);
    };
  };
  registry_.RegisterCallbackCounter("knnq_engine_queries_total",
                                    "Queries executed.",
                                    engine_counter(&EngineStatsSnapshot::queries));
  registry_.RegisterCallbackCounter(
      "knnq_engine_query_errors_total", "Queries that failed.",
      engine_counter(&EngineStatsSnapshot::query_errors));
  registry_.RegisterCallbackCounter(
      "knnq_engine_mutations_total", "DML statements executed.",
      engine_counter(&EngineStatsSnapshot::mutations));
  registry_.RegisterCallbackCounter(
      "knnq_engine_mutation_errors_total", "DML statements that failed.",
      engine_counter(&EngineStatsSnapshot::mutation_errors));
  registry_.RegisterCallbackCounter(
      "knnq_engine_blocks_scanned_total",
      "Columnar blocks whose points were compared.",
      total_counter(&ExecStats::blocks_scanned));
  registry_.RegisterCallbackCounter(
      "knnq_engine_blocks_skipped_total",
      "Columnar blocks pruned by their bounding boxes.",
      total_counter(&ExecStats::blocks_skipped));
  registry_.RegisterCallbackCounter(
      "knnq_engine_points_compared_total",
      "Point distance computations.",
      total_counter(&ExecStats::points_compared));
  registry_.RegisterCallbackCounter(
      "knnq_engine_neighborhoods_computed_total",
      "kNN neighborhoods computed (cache misses included).",
      total_counter(&ExecStats::neighborhoods_computed));
  registry_.RegisterCallbackCounter(
      "knnq_engine_candidates_pruned_total",
      "Join candidates pruned by locality filters.",
      total_counter(&ExecStats::candidates_pruned));
  registry_.RegisterCallbackGauge(
      "knnq_engine_max_arena_bytes",
      "Largest scratch-arena footprint of any one query.", [this] {
        return static_cast<double>(
            engine_->StatsSnapshot().totals.arena_bytes);
      });

  if (const NeighborhoodCache* cache = engine_->neighborhood_cache();
      cache != nullptr) {
    const auto cache_counter = [cache](std::uint64_t NeighborhoodCacheStats::*
                                           field) {
      return [cache, field] {
        return static_cast<std::uint64_t>(cache->GetStats().*field);
      };
    };
    registry_.RegisterCallbackCounter(
        "knnq_cache_hits_total", "Neighborhood cache hits.",
        cache_counter(&NeighborhoodCacheStats::hits));
    registry_.RegisterCallbackCounter(
        "knnq_cache_misses_total", "Neighborhood cache misses.",
        cache_counter(&NeighborhoodCacheStats::misses));
    registry_.RegisterCallbackCounter(
        "knnq_cache_insertions_total", "Neighborhood cache insertions.",
        cache_counter(&NeighborhoodCacheStats::insertions));
    registry_.RegisterCallbackCounter(
        "knnq_cache_evictions_total", "Neighborhood cache evictions.",
        cache_counter(&NeighborhoodCacheStats::evictions));
    registry_.RegisterCallbackCounter(
        "knnq_cache_invalidated_total",
        "Neighborhood cache entries dropped by invalidation.",
        cache_counter(&NeighborhoodCacheStats::invalidated));
    registry_.RegisterCallbackGauge(
        "knnq_cache_entries", "Neighborhood cache live entries.", [cache] {
          return static_cast<double>(cache->GetStats().entries);
        });
    registry_.RegisterCallbackGauge(
        "knnq_cache_bytes", "Neighborhood cache resident bytes.", [cache] {
          return static_cast<double>(cache->GetStats().bytes);
        });
    registry_.RegisterCallbackGauge(
        "knnq_cache_capacity_bytes", "Neighborhood cache capacity.",
        [cache] { return static_cast<double>(cache->capacity_bytes()); });
  }

  // The ring sampler: saturation and rate trends over a fixed window,
  // served by /statusz and the HISTORY verb.
  history_ = std::make_unique<obs::MetricsHistory>(
      &registry_,
      std::vector<std::string>{
          "knnq_server_requests_total", "knnq_engine_queries_total",
          "knnq_server_in_flight", "knnq_server_active_connections",
          "knnq_engine_pool_queue_depth",
          "knnq_process_resident_memory_bytes"},
      options_.history);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  // Idempotent: the durable path already ran this before recovery so
  // /readyz could answer during the replay.
  if (Status s = StartHttp(); !s.ok()) return s;
  return listener_.Start();
}

Status Server::StartHttp() {
  // The sampler always runs (the HISTORY verb needs it); the HTTP
  // plane only when asked for. Start() also calls this, so a server
  // started without StartHttp still samples.
  history_->Start();
  if (!options_.http_enabled || http_ != nullptr) return Status::Ok();

  http_ = std::make_unique<obs::HttpServer>(options_.http);
  http_->AddHandler("/metrics", [this] {
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheus();
    return response;
  });
  http_->AddHandler("/healthz", [] {
    // Liveness: the process answers, nothing more.
    return obs::HttpResponse{.body = "ok\n"};
  });
  http_->AddHandler("/readyz", [this] {
    const std::vector<std::string> reasons = NotReadyReasons();
    if (reasons.empty()) return obs::HttpResponse{.body = "ok\n"};
    std::string body = "not ready\n";
    for (const std::string& reason : reasons) body += reason + "\n";
    return obs::HttpResponse{.status = 503, .body = std::move(body)};
  });
  http_->AddHandler("/statusz", [this] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderStatusz();
    return response;
  });
  if (Status s = http_->Start(); !s.ok()) {
    http_.reset();
    return s;
  }
  return Status::Ok();
}

void Server::Stop() {
  // A stuck peer is cut after shutdown_grace_ms without write progress;
  // 0 never cuts.
  std::optional<std::chrono::milliseconds> grace;
  if (options_.shutdown_grace_ms > 0) {
    grace = std::chrono::milliseconds(options_.shutdown_grace_ms);
  }
  // Linger only after a drain this call ran: a second Stop, or one of a
  // server never started, tears the observability plane down at once.
  StopObservability(/*linger=*/listener_.Stop(grace));
}

void Server::StopObservability(bool linger) {
  if (http_ != nullptr) {
    // The HTTP plane outlives the KNNQL drain: during the linger
    // window /readyz answers 503 "draining", so a load balancer
    // observes not-ready and stops routing BEFORE the endpoints
    // disappear (the standard drain pattern).
    if (linger && options_.drain_linger_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.drain_linger_ms));
    }
    http_->Stop();
  }
  history_->Stop();
}

std::string Server::RenderStats() const {
  return "{\"status\": \"ok\", \"metrics\": " + registry_.RenderJson() +
         "}";
}

std::string Server::RenderPrometheus() const {
  return registry_.RenderPrometheus();
}

std::vector<std::string> Server::NotReadyReasons() const {
  std::vector<std::string> reasons;
  if (recovering_.load(std::memory_order_acquire)) {
    reasons.push_back("recovery in progress");
  }
  if (!listener_.started()) reasons.push_back("accept loop not started");
  if (listener_.stop_requested()) reasons.push_back("draining");
  if (options_.max_inflight > 0 &&
      admission_.in_flight() >= options_.max_inflight) {
    reasons.push_back("admission saturated (in_flight at max_inflight=" +
                      std::to_string(options_.max_inflight) + ")");
  }
  if (options_.wal_writable != nullptr && !options_.wal_writable()) {
    reasons.push_back("wal not writable");
  }
  return reasons;
}

std::string Server::RenderStatusz() const {
  const std::vector<std::string> reasons = NotReadyReasons();
  std::string reasons_json = "[";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) reasons_json += ", ";
    reasons_json += "\"" + JsonEscape(reasons[i]) + "\"";
  }
  reasons_json += "]";
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - start_time_)
                          .count();
  return "{\"status\": \"ok\", \"build\": " + obs::BuildInfoJson() +
         ", \"uptime_seconds\": " + std::to_string(uptime) +
         ", \"ready\": " + (reasons.empty() ? "true" : "false") +
         ", \"not_ready_reasons\": " + reasons_json +
         ", \"metrics\": " + registry_.RenderJson() +
         ", \"history\": " + RenderHistory() + "}";
}

std::string Server::RenderHistory() const {
  return history_->RenderJson();
}

void Server::Serve(TcpConnection& conn) {
  metrics_.connections_opened.Add();
  Session::Callbacks callbacks;
  callbacks.write = [this, &conn](const std::string& line) {
    // The record and its newline in one gathered write, with no copy
    // of what can be a multi-megabyte rows payload. On a failure the
    // connection is broken and drains without responses.
    const TcpConnection::WriteResult result = conn.Write(line, "\n");
    if (result == TcpConnection::WriteResult::kTimedOut) {
      metrics_.write_timeouts.Add();
    }
    return result == TcpConnection::WriteResult::kOk;
  };
  callbacks.render_stats = [this] { return RenderStats(); };
  callbacks.render_metrics = [this] {
    return "{\"status\": \"ok\", \"prometheus\": \"" +
           JsonEscape(RenderPrometheus()) + "\"}";
  };
  callbacks.render_history = [this] {
    return "{\"status\": \"ok\", \"history\": " + RenderHistory() + "}";
  };
  if (options_.allow_remote_shutdown) {
    callbacks.request_shutdown = [this] { RequestStop(); };
  }
  if (options_.snapshot_handler != nullptr) {
    callbacks.snapshot = [this]() -> std::string {
      auto lsn = options_.snapshot_handler();
      if (!lsn.ok()) return JsonErrorRecord("", "", lsn.status());
      return "{\"status\": \"ok\", \"snapshot_lsn\": " +
             std::to_string(*lsn) + "}";
    };
  }
  Session session(engine_, options_.limits, &metrics_, &admission_,
                  std::move(callbacks));

  char buffer[64 * 1024];
  // Why the connection ended; only a peer-initiated end (EOF or a
  // read error) counts toward the mid-statement-disconnect metric.
  enum class Close { kPeer, kIdle, kRejected, kBroken };
  Close close = Close::kPeer;
  int idle_ms = 0;
  for (;;) {
    // A write timeout marks the connection broken from a worker
    // thread: its responses are undeliverable, so parking the reader
    // here would pin the connection slot (and its thread) until the
    // peer deigns to close. The bounded wait below exists so this
    // check runs even when no input ever arrives.
    if (conn.broken()) {
      close = Close::kBroken;
      break;
    }
    int tick = 1000;
    if (options_.idle_timeout_ms > 0) {
      tick = std::min(tick, options_.idle_timeout_ms - idle_ms);
    }
    const std::ptrdiff_t n = conn.Receive(buffer, sizeof(buffer), tick);
    if (n < 0) break;  // EOF (client close or our SHUT_RD) or error.
    if (n == 0) {
      idle_ms += tick;
      if (options_.idle_timeout_ms > 0 &&
          idle_ms >= options_.idle_timeout_ms) {
        // Idle expiry only when truly quiet: nothing in flight and no
        // partial statement buffered; otherwise the clock restarts.
        if (session.in_flight() == 0 && !session.has_buffered_input()) {
          metrics_.idle_timeouts.Add();
          close = Close::kIdle;
          break;
        }
        idle_ms = 0;
      }
      continue;
    }
    idle_ms = 0;
    if (!session.Consume(
            std::string_view(buffer, static_cast<std::size_t>(n)))) {
      close = Close::kRejected;  // Oversized; error already sent.
      break;
    }
  }
  // Drain: every admitted query completes and writes its response
  // before the session goes (OnQueryDone notifies under its lock, so
  // destroying the session once WaitIdle returns is safe).
  session.WaitIdle();
  if (close == Close::kPeer) session.FinishInput();
  metrics_.connections_closed.Add();
}

}  // namespace knnq::server
