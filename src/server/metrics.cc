#include "src/server/metrics.h"

namespace knnq::server {

void ServerMetrics::RegisterAll(obs::MetricsRegistry* registry) const {
  const struct {
    const char* name;
    const char* help;
    const obs::Counter* counter;
  } counters[] = {
      {"knnq_server_connections_opened_total", "Accepted connections.",
       &connections_opened},
      {"knnq_server_connections_closed_total", "Closed connections.",
       &connections_closed},
      {"knnq_server_requests_total", "Statements and admin verbs received.",
       &requests},
      {"knnq_server_responses_total", "Responses written.", &responses},
      {"knnq_server_queries_ok_total", "Successful queries.", &queries_ok},
      {"knnq_server_mutations_ok_total", "Successful DML statements.",
       &mutations_ok},
      {"knnq_server_explains_ok_total",
       "Successful EXPLAIN and EXPLAIN ANALYZE statements.", &explains_ok},
      {"knnq_server_admin_requests_total",
       "Admin verbs (STATS, METRICS, PING, SHUTDOWN).", &admin_requests},
      {"knnq_server_errors_total", "Error responses.", &errors},
      {"knnq_server_overload_rejections_total",
       "Statements rejected by admission control or a full pool queue.",
       &overload_rejections},
      {"knnq_server_connection_rejections_total",
       "Accepts refused at the connection cap.", &connection_rejections},
      {"knnq_server_write_timeouts_total",
       "Response writes that hit the send deadline.", &write_timeouts},
      {"knnq_server_parse_errors_total", "Statements that failed to parse.",
       &parse_errors},
      {"knnq_server_oversized_requests_total",
       "Statements over the request byte limit.", &oversized_requests},
      {"knnq_server_idle_timeouts_total",
       "Connections closed by the idle deadline.", &idle_timeouts},
      {"knnq_server_disconnects_mid_statement_total",
       "Connections that vanished mid-statement.",
       &disconnects_mid_statement},
  };
  for (const auto& c : counters) {
    registry->RegisterCounter(c.name, c.help, c.counter);
  }
  registry->RegisterHistogram("knnq_server_query_latency_seconds",
                              "Query execution latency (queued to done).",
                              &query_latency);
  registry->RegisterHistogram("knnq_server_mutation_latency_seconds",
                              "DML execution latency.", &mutation_latency);
  registry->RegisterHistogram("knnq_server_parse_latency_seconds",
                              "Statement text parse latency.",
                              &parse_latency);
  registry->RegisterHistogram("knnq_server_bind_latency_seconds",
                              "Statement bind latency.", &bind_latency);
}

}  // namespace knnq::server
