// Session: one connection's half of the wire protocol, socket-free so
// tests can drive it directly. Bytes go in via Consume(); complete
// statements are framed by StatementSplitter, parsed incrementally
// (multi-line statements simply stay pending until their ';' arrives),
// and dispatched:
//
//   * queries bind against the live catalog and execute asynchronously
//     on the engine's worker pool - pipelined queries from one
//     connection run concurrently and may complete out of order, which
//     the `id` tag in every response makes legal;
//   * EXPLAIN plans synchronously and returns the rendering; EXPLAIN
//     ANALYZE additionally executes (still synchronously, without
//     admission) and returns the measured span tree;
//   * DML is a barrier within the connection: the session waits for
//     its own in-flight queries, then applies the mutation on the
//     calling thread. Cross-connection ordering is the engine's
//     reader/writer protocol;
//   * admin verbs (STATS; METRICS; HISTORY; PING; SHUTDOWN;) are
//     answered without touching the parser.
//
// Backpressure: a query is admitted only while the connection's own
// in-flight count is under `max_conn_inflight` AND the server-wide
// AdmissionController grants a slot; otherwise the session answers a
// structured `overloaded` error (code "Unavailable") immediately.

#ifndef KNNQ_SRC_SERVER_SESSION_H_
#define KNNQ_SRC_SERVER_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "src/engine/query_engine.h"
#include "src/server/admission.h"
#include "src/server/metrics.h"
#include "src/server/wire.h"

namespace knnq::server {

/// Per-connection protocol limits (a slice of ServerOptions).
struct SessionLimits {
  /// In-flight queries one connection may have; further pipelined
  /// queries are refused as overloaded. At least 1.
  std::size_t max_conn_inflight = 16;

  /// Longest unterminated statement the session buffers before it
  /// answers an error and asks the server to drop the connection.
  std::size_t max_request_bytes = 1 << 20;

  /// Directory LOAD statements may read from. Paths are canonicalized
  /// (symlinks and ".." resolved) and must land inside it; empty
  /// refuses LOAD entirely. Network peers must not be able to make
  /// the server read arbitrary server-side files.
  std::string load_dir;
};

class Session {
 public:
  struct Callbacks {
    /// Writes one response line (no trailing newline in `line`).
    /// Must be thread-safe: engine workers and the connection thread
    /// both respond. A false return means the peer is gone; the
    /// session keeps draining without writing.
    std::function<bool(const std::string& line)> write;

    /// Renders the STATS record body (without the id field):
    /// `{"status": "ok", "metrics": {...}}`, the server's metrics
    /// registry as JSON.
    std::function<std::string()> render_stats;

    /// Renders the METRICS record body: the same registry as
    /// Prometheus text exposition, wrapped as `{"status": "ok",
    /// "prometheus": "..."}`.
    std::function<std::string()> render_metrics;

    /// Renders the HISTORY record body: the ring-buffer time series
    /// wrapped as `{"status": "ok", "history": {...}}`.
    std::function<std::string()> render_history;

    /// SHUTDOWN verb; null disables the verb (it then answers an
    /// Unsupported error).
    std::function<void()> request_shutdown;

    /// SNAPSHOT verb: cuts a durable point-in-time snapshot and
    /// returns its record body `{"status": "ok", "snapshot_lsn": N}`
    /// (or an error record). Null disables the verb — the server
    /// wires it only when serving with --data-dir.
    std::function<std::string()> snapshot;
  };

  Session(QueryEngine* engine, const SessionLimits& limits,
          ServerMetrics* metrics, AdmissionController* admission,
          Callbacks callbacks);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds bytes and dispatches every statement they complete. May
  /// block on a DML barrier. Returns false when the connection must
  /// close (oversized request); the error response was already sent.
  bool Consume(std::string_view bytes);

  /// Input ended. Flags a mid-statement disconnect in the metrics.
  void FinishInput();

  /// Blocks until every query this session submitted has completed
  /// (responses written). Connections drain before closing.
  void WaitIdle();

  /// Queries submitted and not yet completed.
  std::size_t in_flight() const;

  /// Bytes of a partially received statement. Connection-thread only
  /// (same thread that calls Consume); guards idle-timeout closes.
  bool has_buffered_input() const { return splitter_.pending_bytes() > 0; }

 private:
  void Dispatch(const std::string& text);
  void DispatchAdmin(std::string_view verb);
  void DispatchQuery(const knnql::Statement& statement,
                     std::uint64_t parse_ns);
  void DispatchDml(const knnql::Statement& statement);

  /// Sends `record` tagged with a fresh id.
  void Respond(const std::string& record);

  /// Marks one admitted query finished (wakes DML barriers / drains).
  void OnQueryDone();

  /// Answers the max_request_bytes violation; always returns false
  /// (the connection must close).
  bool RejectOversized();

  QueryEngine* engine_;
  SessionLimits limits_;
  ServerMetrics* metrics_;
  AdmissionController* admission_;
  Callbacks callbacks_;
  StatementSplitter splitter_;

  /// Next response id, 1-based, assigned in statement order.
  std::uint64_t next_id_ = 1;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t pending_ = 0;
};

}  // namespace knnq::server

#endif  // KNNQ_SRC_SERVER_SESSION_H_
