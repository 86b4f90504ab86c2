// Server observability: request/connection counters and latency
// histograms, all updated lock-free from connection and worker threads
// and registered in the server's obs::MetricsRegistry, which renders
// them for STATS, METRICS, GET /metrics and /statusz.

#ifndef KNNQ_SRC_SERVER_METRICS_H_
#define KNNQ_SRC_SERVER_METRICS_H_

#include "src/obs/metrics_registry.h"

namespace knnq::server {

/// One relaxed-atomic counter bundle per server. Everything is
/// monotone except in-flight gauges, which the admission controller
/// owns; snapshotting is field-by-field relaxed reads.
struct ServerMetrics {
  obs::Counter connections_opened;
  obs::Counter connections_closed;
  obs::Counter requests;
  obs::Counter responses;
  obs::Counter queries_ok;
  obs::Counter mutations_ok;
  obs::Counter explains_ok;
  obs::Counter admin_requests;
  obs::Counter errors;
  /// Structured `overloaded` rejections (admission or pool full).
  obs::Counter overload_rejections;
  /// Accepts refused at ServerOptions::max_connections.
  obs::Counter connection_rejections;
  /// Response writes that hit the SO_SNDTIMEO deadline (peer stopped
  /// reading); each marks its connection broken.
  obs::Counter write_timeouts;
  obs::Counter parse_errors;
  obs::Counter oversized_requests;
  obs::Counter idle_timeouts;
  /// Connections that vanished mid-statement (framing diagnostics).
  obs::Counter disconnects_mid_statement;

  obs::Histogram query_latency;
  obs::Histogram mutation_latency;
  /// Front-door costs: statement-text parsing and binding, timed on
  /// the connection thread.
  obs::Histogram parse_latency;
  obs::Histogram bind_latency;

  /// Registers every member under its knnq_server_* name. `this` must
  /// outlive `registry`.
  void RegisterAll(obs::MetricsRegistry* registry) const;
};

}  // namespace knnq::server

#endif  // KNNQ_SRC_SERVER_METRICS_H_
