#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "src/engine/neighborhood_cache.h"
#include "src/obs/process_stats.h"

namespace knnq::server {

Server::Server(QueryEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.max_inflight),
      start_time_(std::chrono::steady_clock::now()) {
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
      obs::HistoryOptions{.interval_ms = options_.history_interval_ms,
                          .capacity = options_.history_capacity});
}

Server::~Server() { Stop(); }

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) return Status::Internal("server already started");
  }
  // Idempotent: the durable path already ran this before recovery so
  // /readyz could answer during the replay.
  if (Status s = StartHttp(); !s.ok()) return s;

  if (::pipe(stop_pipe_) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  // A failure below must release everything opened so far: a caller
  // probing ports retries Start in a loop and must not leak fds.
  const auto fail = [this](Status status) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    return status;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail(
        Status::IoError(std::string("socket: ") + std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(
        Status::InvalidArgument("bad listen address: " + options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail(Status::IoError(
        "bind " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno)));
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    return fail(
        Status::IoError(std::string("listen: ") + std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

Status Server::StartHttp() {
  // The sampler always runs (the HISTORY verb needs it); the HTTP
  // plane only when asked for. Start() also calls this, so a server
  // started without StartHttp still samples.
  history_->Start();
  if (!options_.http_enabled || http_ != nullptr) return Status::Ok();

  obs::HttpServerOptions http_options = options_.http;
  http_options.host = options_.http_host;
  http_options.port = options_.http_port;
  http_ = std::make_unique<obs::HttpServer>(http_options);
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

void Server::RequestStop() {
  // Async-signal-safe: one atomic store and one pipe write. The pipe
  // wakes the accept loop; waiters poll the same pipe (level-
  // triggered, the byte is never consumed).
  if (stop_requested_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::WaitUntilStopRequested() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{.fd = stop_pipe_[0], .events = POLLIN, .revents = 0};
    ::poll(&pfd, 1, 100);
  }
}

void Server::Stop() {
  RequestStop();
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_ && !stopped_) {
      stopped_ = true;
      drain = true;
    }
  }
  if (!drain) {
    // Start() never ran (or Stop already did the drain); only the
    // observability plane may need tearing down.
    StopObservability(false);
    return;
  }

  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Claim the connection list, then work without the registry lock: a
  // connection thread answering STATS reads the registry for the
  // active-connection gauge, and joining it while holding the lock
  // would deadlock.
  std::list<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  // Half-close every connection: readers see EOF, drain their
  // in-flight queries, flush the responses and exit.
  for (const auto& conn : connections) {
    ::shutdown(conn->fd, SHUT_RD);
  }
  // Bounded drain. SHUT_RD never unblocks a writer, so a peer that
  // stopped reading could park response writes (and with them the
  // engine workers delivering them) past any point this join would
  // reach. Escalation is per connection and progress-aware: one that
  // goes shutdown_grace_ms without a single response byte reaching
  // its socket is cut with a full shutdown (the blocked send fails
  // with EPIPE and its session drains without responses), while a
  // healthy peer that keeps reading keeps draining - its progress
  // resets the clock, so no accepted statement of a live reader is
  // dropped. Every connection ends done or escalated, so the joins
  // below always return.
  if (options_.shutdown_grace_ms > 0) {
    struct DrainWatch {
      std::uint64_t bytes = 0;
      std::chrono::steady_clock::time_point last_progress;
      bool escalated = false;
    };
    std::vector<DrainWatch> watch(connections.size());
    {
      const auto now = std::chrono::steady_clock::now();
      std::size_t i = 0;
      for (const auto& conn : connections) {
        watch[i].bytes =
            conn->bytes_written.load(std::memory_order_acquire);
        watch[i].last_progress = now;
        ++i;
      }
    }
    const auto grace =
        std::chrono::milliseconds(options_.shutdown_grace_ms);
    for (;;) {
      bool waiting = false;
      const auto now = std::chrono::steady_clock::now();
      std::size_t i = 0;
      for (const auto& conn : connections) {
        DrainWatch& w = watch[i++];
        if (w.escalated || conn->done.load(std::memory_order_acquire)) {
          continue;
        }
        const std::uint64_t bytes =
            conn->bytes_written.load(std::memory_order_acquire);
        if (bytes != w.bytes) {
          w.bytes = bytes;
          w.last_progress = now;
        }
        if (now - w.last_progress >= grace) {
          ::shutdown(conn->fd, SHUT_RDWR);
          w.escalated = true;
          continue;
        }
        waiting = true;
      }
      if (!waiting) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (const auto& conn : connections) {
    conn->thread.join();
    ::close(conn->fd);
  }
  connections.clear();

  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;

  StopObservability(true);
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

std::size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  std::size_t active = 0;
  for (const auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
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
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) reasons.push_back("accept loop not started");
  }
  if (stop_requested_.load(std::memory_order_acquire)) {
    reasons.push_back("draining");
  }
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

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::RefuseConnection(int fd) {
  metrics_.connection_rejections.Add();
  const std::string line =
      WithId(1, JsonErrorRecord(
                    "", "",
                    Status::Unavailable(
                        "overloaded: server at max_connections=" +
                        std::to_string(options_.max_connections)))) +
      "\n";
  // Best effort and never blocking: the accept thread must not stall
  // on a peer that is part of the overload it is shedding.
  [[maybe_unused]] const ssize_t n = ::send(
      fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void Server::AcceptLoop() {
  pollfd fds[2];
  fds[0] = {.fd = listen_fd_, .events = POLLIN, .revents = 0};
  fds[1] = {.fd = stop_pipe_[0], .events = POLLIN, .revents = 0};
  for (;;) {
    // A RequestStop issued before Start had a pipe to write leaves
    // only the flag; check it so the loop cannot block forever.
    if (stop_requested_.load(std::memory_order_acquire)) break;
    // Bounded wait so finished connections are reaped within ~1s even
    // when no new client ever connects; an idle server must not
    // retain the last burst's unjoined threads indefinitely.
    const int ready = ::poll(fds, 2, 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    ReapFinished();
    if (ready == 0) continue;
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.max_connections > 0 &&
        active_connections() >= options_.max_connections) {
      RefuseConnection(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.write_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.write_timeout_ms / 1000;
      tv.tv_usec =
          static_cast<suseconds_t>(options_.write_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }

    metrics_.connections_opened.Add();
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = fd;
    Session::Callbacks callbacks;
    callbacks.write = [this, raw](const std::string& line) {
      return WriteLine(raw, line);
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
    raw->session = std::make_unique<Session>(
        engine_, options_.limits, &metrics_, &admission_,
        std::move(callbacks));
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void Server::ConnectionLoop(Connection* conn) {
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
    // peer deigns to close. The bounded poll tick below exists so
    // this check runs even when no input ever arrives.
    if (conn->broken.load(std::memory_order_relaxed)) {
      close = Close::kBroken;
      break;
    }
    int tick = 1000;
    if (options_.idle_timeout_ms > 0) {
      tick = std::min(tick, options_.idle_timeout_ms - idle_ms);
    }
    pollfd pfd{.fd = conn->fd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&pfd, 1, tick);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      idle_ms += tick;
      if (options_.idle_timeout_ms > 0 &&
          idle_ms >= options_.idle_timeout_ms) {
        // Idle expiry only when truly quiet: nothing in flight and no
        // partial statement buffered; otherwise the clock restarts.
        if (conn->session->in_flight() == 0 &&
            !conn->session->has_buffered_input()) {
          metrics_.idle_timeouts.Add();
          close = Close::kIdle;
          break;
        }
        idle_ms = 0;
      }
      continue;
    }
    idle_ms = 0;
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n == 0) break;  // EOF (client close or our SHUT_RD).
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!conn->session->Consume(
            std::string_view(buffer, static_cast<std::size_t>(n)))) {
      close = Close::kRejected;  // Oversized; error already sent.
      break;
    }
  }
  // Drain: every admitted query completes and writes its response
  // before the connection is torn down.
  conn->session->WaitIdle();
  if (close == Close::kPeer) conn->session->FinishInput();
  ::shutdown(conn->fd, SHUT_RDWR);
  metrics_.connections_closed.Add();
  conn->done.store(true, std::memory_order_release);
}

bool Server::WriteLine(Connection* conn, const std::string& line) {
  if (conn->broken.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // Re-check under the lock: writers queued behind the one that timed
  // out must fail immediately, not each burn a full deadline of their
  // own against the same dead socket.
  if (conn->broken.load(std::memory_order_relaxed)) return false;
  // Gathered write: record + '\n' in one syscall, no copy of what can
  // be a multi-megabyte rows payload.
  const char newline = '\n';
  iovec iov[2] = {
      {.iov_base = const_cast<char*>(line.data()), .iov_len = line.size()},
      {.iov_base = const_cast<char*>(&newline), .iov_len = 1},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  std::size_t sent = 0;
  const std::size_t total = line.size() + 1;
  // The write deadline is wall-clock for the WHOLE response, not per
  // send() call: SO_SNDTIMEO alone resets on any progress, so a peer
  // trickle-reading a byte every few seconds would still park this
  // worker indefinitely. SO_SNDTIMEO's role is merely to bound each
  // blocking send so the clock below actually gets checked.
  const bool bounded = options_.write_timeout_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_timeout_ms);
  while (sent < total) {
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      metrics_.write_timeouts.Add();
      conn->broken.store(true, std::memory_order_relaxed);
      return false;
    }
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN here is SO_SNDTIMEO expiring with zero progress: the
      // peer stopped reading. The connection is broken either way;
      // distinguishing the cause is only for the metrics.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        metrics_.write_timeouts.Add();
      }
      conn->broken.store(true, std::memory_order_relaxed);
      return false;
    }
    sent += static_cast<std::size_t>(n);
    conn->bytes_written.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_release);
    // Advance the iovec past what went out (short writes happen when
    // the socket buffer fills under pipelined responses).
    std::size_t skip = static_cast<std::size_t>(n);
    while (skip > 0 && msg.msg_iovlen > 0) {
      if (skip >= msg.msg_iov[0].iov_len) {
        skip -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<char*>(msg.msg_iov[0].iov_base) + skip;
        msg.msg_iov[0].iov_len -= skip;
        skip = 0;
      }
    }
  }
  return true;
}

}  // namespace knnq::server
