// Server: the KNNQL front end that puts the wire protocol of
// src/server/wire.h on a socket.
//
// Architecture: a TcpListener (src/common/tcp_listener.h) accepts and
// gives each connection a reader thread (serving-scale fan-in is
// bounded by admission control, not by the connection count); this
// class wires each connection to a Session. Queries execute on the
// shared QueryEngine worker pool. Responses are written by whichever
// thread finishes the work - engine workers for queries, the
// connection thread for everything else - as one gathered write of
// the record and its newline.
//
// Graceful shutdown (Stop): stop accepting, half-close every
// connection's read side, let each connection drain its in-flight
// queries and flush their responses, join everything, close. No
// accepted statement is dropped for a peer that keeps reading; a peer
// that does not is cut off after ServerOptions::shutdown_grace_ms so
// the drain always terminates.

#ifndef KNNQ_SRC_SERVER_SERVER_H_
#define KNNQ_SRC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tcp_listener.h"
#include "src/engine/query_engine.h"
#include "src/obs/history.h"
#include "src/obs/http_server.h"
#include "src/obs/metrics_registry.h"
#include "src/server/admission.h"
#include "src/server/metrics.h"
#include "src/server/session.h"

namespace knnq::server {

struct ServerOptions {
  /// Listen address. The default binds loopback only; "0.0.0.0"
  /// exposes the server.
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;

  /// Server-wide bound on concurrently executing queries; the
  /// admission gate rejects beyond it with a structured `overloaded`
  /// error. 0 means unlimited.
  std::size_t max_inflight = 64;

  /// Upper bound on concurrently open connections (each costs a
  /// thread and a read buffer); an accept beyond it is answered with
  /// one structured `overloaded` error line and closed. 0 means
  /// unlimited.
  std::size_t max_connections = 256;

  /// Per-connection protocol limits.
  SessionLimits limits;

  /// Close connections idle (no bytes, nothing in flight) this long;
  /// 0 disables the timeout.
  int idle_timeout_ms = 0;

  /// Wall-clock deadline for writing one response (SO_SNDTIMEO bounds
  /// each send() so the clock is actually checked). A peer that
  /// pipelines queries and then stops - or merely trickle-reads -
  /// would otherwise park the engine workers delivering its responses
  /// in send() forever, wedging the pool. On expiry the connection is
  /// marked broken and drains without responses. 0 disables the
  /// deadline (Stop's grace escalation still bounds shutdown).
  int write_timeout_ms = 10000;

  /// Graceful-shutdown escalation: after Stop() half-closes read
  /// sides, a connection that goes this long with NO write progress
  /// is cut with a full socket shutdown, so writers blocked on a dead
  /// peer fail with EPIPE instead of hanging the drain. A healthy
  /// peer that keeps reading keeps draining - progress resets its
  /// clock. 0 never escalates (the drain may then hang on a dead
  /// peer if write_timeout_ms is also 0).
  int shutdown_grace_ms = 5000;

  /// SO_SNDBUF for accepted sockets; 0 keeps the OS default. Mostly a
  /// test hook: tiny buffers make write-timeout paths reproducible.
  int sndbuf_bytes = 0;

  /// Whether the SHUTDOWN admin verb may stop the server. Off by
  /// default: any peer that can connect could otherwise stop a server
  /// exposed beyond loopback. CI smoke opts in explicitly.
  bool allow_remote_shutdown = false;

  /// SNAPSHOT admin verb handler: returns the new snapshot's LSN or
  /// the failure. Null (default) disables the verb; `knnq_cli serve
  /// --data-dir` wires it to the DurabilityManager.
  std::function<Result<std::uint64_t>()> snapshot_handler;

  /// HTTP observability plane (GET /metrics, /healthz, /readyz,
  /// /statusz). Off by default; `knnq_cli serve --http-port` enables
  /// it. Start it with StartHttp() — before Start(), so /readyz can
  /// answer "recovery in progress" while the WAL replays.
  bool http_enabled = false;
  /// The plane's address, port (0 picks an ephemeral one; read it
  /// back with http_port()) and limits.
  obs::HttpServerOptions http;

  /// The ring-buffer time series behind /statusz and HISTORY.
  obs::HistoryOptions history;

  /// After the KNNQL drain completes, Stop() keeps the HTTP plane up
  /// for this window answering /readyz with 503 "draining", the
  /// standard load-balancer drain pattern: the LB observes not-ready
  /// and stops routing BEFORE the process disappears. 0 tears the
  /// plane down immediately.
  int drain_linger_ms = 0;

  /// Readiness hook: false when WAL appends are failing (commits can
  /// no longer be made durable). Null when not serving durably.
  std::function<bool()> wal_writable;
};

class Server {
 public:
  /// `engine` must outlive the server and should be constructed with
  /// EngineOptions::pool_queue_limit > 0 so engine-side backpressure
  /// engages.
  Server(QueryEngine* engine, ServerOptions options);

  /// Stops (gracefully) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept thread.
  Status Start();

  /// Starts the HTTP observability plane (when options.http_enabled)
  /// and the history sampler. Call BEFORE Start() — and before a
  /// durable recovery, bracketed by BeginRecovery/EndRecovery — so
  /// /healthz and /readyz answer while the WAL replays. No-op when
  /// the plane is disabled (the sampler still starts, feeding the
  /// HISTORY verb).
  Status StartHttp();

  /// Brackets a durable recovery: between the two, /readyz answers
  /// 503 with "recovery in progress".
  void BeginRecovery() {
    recovering_.store(true, std::memory_order_release);
  }
  void EndRecovery() {
    recovering_.store(false, std::memory_order_release);
  }

  /// The bound port (after Start); useful with options.port = 0.
  std::uint16_t port() const { return listener_.port(); }

  /// The HTTP plane's bound port (after StartHttp); 0 when disabled.
  std::uint16_t http_port() const {
    return http_ != nullptr ? http_->port() : 0;
  }

  /// Requests a stop from any thread (signal handlers included: an
  /// atomic store plus a write to a pipe). Does not wait. Call Start
  /// first.
  void RequestStop() { listener_.RequestStop(); }

  /// Blocks until RequestStop (SHUTDOWN verb, signal, or any caller).
  /// Must not race Stop() - the usual shape is Start / WaitUntil /
  /// Stop on the owning thread.
  void WaitUntilStopRequested() { listener_.WaitUntilStopRequested(); }

  /// Graceful shutdown as described above. Idempotent; implies
  /// RequestStop.
  void Stop();

  const ServerMetrics& metrics() const { return metrics_; }

  /// The scrape-time registry behind STATS, METRICS, /metrics,
  /// /statusz and HISTORY. Exposed so subsystems created outside the
  /// server (the durability manager) can register their instruments
  /// before Start().
  obs::MetricsRegistry* registry() { return &registry_; }

  /// Open connections, a draining one included until it is joined.
  std::size_t active_connections() const {
    return listener_.active_connections();
  }
  std::size_t in_flight() const { return admission_.in_flight(); }

  /// The STATS record body, `{"status": "ok", "metrics": {...}}`: every
  /// registered metric as the registry's JSON object.
  std::string RenderStats() const;

  /// Every registered metric - server counters and latency histograms,
  /// engine cumulative totals, cache stats - in Prometheus text
  /// exposition format; the payload of the METRICS admin verb AND the
  /// GET /metrics body (byte-identical by construction: one renderer).
  std::string RenderPrometheus() const;

  /// Readiness reasons, empty when ready to serve: recovery finished,
  /// accept loop up, not draining, admission not saturated, WAL
  /// writable.
  std::vector<std::string> NotReadyReasons() const;

  /// The GET /statusz body: build info, uptime, readiness, every
  /// registered metric (the STATS `metrics` object) and the sampled
  /// time series.
  std::string RenderStatusz() const;

  /// The ring-buffer time series as JSON - the HISTORY verb payload
  /// and the "history" object of /statusz.
  std::string RenderHistory() const;

  /// The sampler behind RenderHistory, exposed for tests.
  obs::MetricsHistory* history() { return history_.get(); }

 private:
  /// One connection's life on its listener thread: a Session fed from
  /// the socket until EOF, the idle timeout, a failed write or an
  /// oversized statement, then drained.
  void Serve(TcpConnection& conn);

  /// Stops the HTTP plane (after the drain-linger window when
  /// `linger`) and the history sampler. Idempotent.
  void StopObservability(bool linger);

  QueryEngine* engine_;
  ServerOptions options_;
  ServerMetrics metrics_;
  AdmissionController admission_;
  /// Scrape-time registry behind every rendering: server counters and
  /// histograms register directly, engine and cache stats through
  /// callbacks that snapshot at scrape time.
  obs::MetricsRegistry registry_;

  /// The HTTP observability plane; null until StartHttp() with
  /// options.http_enabled.
  std::unique_ptr<obs::HttpServer> http_;
  /// Ring-buffer time series over six registry entries.
  std::unique_ptr<obs::MetricsHistory> history_;
  /// True between BeginRecovery and EndRecovery (WAL replay).
  std::atomic<bool> recovering_{false};
  /// Construction time, the uptime gauge's epoch.
  std::chrono::steady_clock::time_point start_time_;

  /// Accepts and owns the connections. Declared last: it is
  /// destroyed (its threads joined) before anything they use.
  TcpListener listener_;
};

}  // namespace knnq::server

#endif  // KNNQ_SRC_SERVER_SERVER_H_
