// The KNNQL network server: wire-protocol framing edge cases, overload
// backpressure, graceful-shutdown drains, concurrent clients racing
// DML against queries (the TSan target), and the differential gate -
// server responses byte-identical to local engine execution for every
// committed example script.

#include "src/server/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/dataset_io.h"
#include "src/durability/durability_manager.h"
#include "src/engine/query_engine.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"
#include "src/server/admission.h"
#include "src/server/loadgen.h"
#include "src/server/wire.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using server::Server;
using server::ServerOptions;
using testing::TestClient;

// ---------------------------------------------------- response helpers

/// `{"id": N, ...` prefix check.
bool HasId(const std::string& response, std::uint64_t id) {
  const std::string prefix = "{\"id\": " + std::to_string(id) + ",";
  return response.rfind(prefix, 0) == 0;
}

bool IsOk(const std::string& response) {
  return response.find("\"status\": \"ok\"") != std::string::npos;
}

std::uint64_t IdOf(const std::string& response) {
  std::uint64_t id = 0;
  EXPECT_EQ(std::sscanf(response.c_str(), "{\"id\": %llu,",
                        reinterpret_cast<unsigned long long*>(&id)),
            1)
      << response;
  return id;
}

// ------------------------------------------------------ server fixture

Catalog MakeServerCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("e", testing::MakeUniform(2000, 11)).ok());
  EXPECT_TRUE(catalog.AddRelation("hot", testing::MakeCity(3000, 12)).ok());
  return catalog;
}

struct ServerFixture {
  ServerFixture() : ServerFixture(ServerOptions()) {}
  explicit ServerFixture(const ServerOptions& options,
                         EngineOptions engine_options = DefaultEngine())
      : engine(MakeServerCatalog(), engine_options),
        server(&engine, options) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  static EngineOptions DefaultEngine() {
    EngineOptions options;
    options.num_threads = 4;
    options.pool_queue_limit = 256;
    return options;
  }

  QueryEngine engine;
  Server server;
};

constexpr const char* kQuery =
    "SELECT KNN(e, 3, AT(100, 100)) INTERSECT KNN(e, 4, AT(120, 90));";

// ------------------------------------------------------- framing tests

TEST(ServerFramingTest, StatementAssembledFromPartialReads) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  // One statement, dribbled in byte-sized writes across packets.
  const std::string statement = kQuery;
  for (const char c : statement) {
    ASSERT_TRUE(client.Send(std::string_view(&c, 1)));
  }
  ASSERT_TRUE(client.Send("\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 1)) << response;
  EXPECT_TRUE(IsOk(response)) << response;
}

TEST(ServerFramingTest, MultiLineStatementAndPipelining) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  // Three statements in one write: the first spans lines, the second
  // shares a line with the third. Responses may complete out of
  // order; ids restore the mapping.
  ASSERT_TRUE(client.Send(
      "SELECT KNN(e, 3, AT(50, 60))\n"
      "INTERSECT\n"
      "KNN(e, 3, AT(51, 61));\n"
      "SELECT KNN(e, 2, AT(5, 5)) INTERSECT KNN(e, 2, AT(6, 6)); PING;\n"));
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    EXPECT_TRUE(IsOk(response)) << response;
    ids.insert(IdOf(response));
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(ServerFramingTest, SemicolonsInsideStringsAndComments) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  // The ';' inside the quoted path and inside the comment must not
  // split the statement. (The LOAD fails - refused, no load_dir on
  // this server - but as ONE statement, answered by ONE error record.)
  ASSERT_TRUE(client.Send("-- comment; with a semicolon\n"
                          "LOAD e FROM '/no;such;file.csv';\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 1)) << response;
  EXPECT_TRUE(response.find("\"status\": \"error\"") != std::string::npos)
      << response;
  EXPECT_TRUE(response.find("/no;such;file.csv") != std::string::npos)
      << response;
  // The session survives and the id counter advanced exactly once.
  ASSERT_TRUE(client.Send("PING;\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 2)) << response;
}

TEST(ServerFramingTest, UnpairedQuoteCannotDesyncFraming) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  // The unpaired quote swallows the rest of ITS line only (string
  // literals end at the newline, like the lexer): the malformed text
  // frames at the next top-level ';', draws one parse-error response,
  // and the stream stays in sync.
  ASSERT_TRUE(client.Send("LOAD e FROM '/tmp/x.csv;\nPING;\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 1)) << response;
  EXPECT_TRUE(response.find("\"code\": \"ParseError\"") !=
              std::string::npos)
      << response;
  ASSERT_TRUE(client.Send("PING;\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 2)) << response;
  EXPECT_TRUE(response.find("\"pong\": true") != std::string::npos)
      << response;
}

TEST(ServerFramingTest, ParseErrorIsStructuredAndSessionSurvives) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("SELECT BOGUS;\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 1)) << response;
  EXPECT_TRUE(response.find("\"code\": \"ParseError\"") !=
              std::string::npos)
      << response;
  // Binding errors are structured too.
  ASSERT_TRUE(client.Send(
      "SELECT KNN(nope, 3, AT(1, 2)) INTERSECT KNN(nope, 3, AT(2, 1));\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 2)) << response;
  EXPECT_TRUE(response.find("\"code\": \"ParseError\"") !=
              std::string::npos)
      << response;
  // And a good statement still executes on the same session.
  ASSERT_TRUE(client.Send(std::string(kQuery) + "\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(HasId(response, 3)) << response;
  EXPECT_TRUE(IsOk(response)) << response;
}

TEST(ServerFramingTest, OversizedStatementClosesConnection) {
  ServerOptions options;
  options.limits.max_request_bytes = 256;
  ServerFixture fixture(options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(std::string(512, 'x')));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(response.find("\"code\": \"InvalidArgument\"") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("max_request_bytes") != std::string::npos)
      << response;
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(fixture.server.metrics().oversized_requests.Value(), 1u);
  // A rejection is not a disconnect: the metric must not double-count.
  EXPECT_EQ(fixture.server.metrics().disconnects_mid_statement.Value(),
            0u);
}

TEST(ServerFramingTest, OversizedCompleteStatementIsRejected) {
  ServerOptions options;
  options.limits.max_request_bytes = 128;
  ServerFixture fixture(options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  // Complete and ';'-terminated in one write - the limit must hold
  // even though the splitter can frame it.
  const std::string statement =
      "-- " + std::string(200, 'p') + "\nPING;\n";
  ASSERT_TRUE(client.Send(statement));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(response.find("\"code\": \"InvalidArgument\"") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("max_request_bytes") != std::string::npos)
      << response;
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(fixture.server.metrics().oversized_requests.Value(), 1u);
}

TEST(ServerFramingTest, MidStatementDisconnectLeavesServerServing) {
  ServerFixture fixture;
  {
    TestClient client(fixture.server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("SELECT KNN(e, 3, AT(1"));
    client.Close();
  }
  // The counter updates after the reader notices EOF; poll for it.
  for (int i = 0;
       i < 200 &&
       fixture.server.metrics().disconnects_mid_statement.Value() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.server.metrics().disconnects_mid_statement.Value(), 1u);
  // A new client is served as if nothing happened.
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(std::string(kQuery) + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
}

TEST(ServerFramingTest, IdleTimeoutClosesQuietConnection) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  ServerFixture fixture(options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(client.ReadEof(/*timeout_ms=*/5000));
  EXPECT_EQ(fixture.server.metrics().idle_timeouts.Value(), 1u);
}

// ------------------------------------------------- admin + backpressure

TEST(ServerAdminTest, StatsPingAndMetricsVerbs) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING;\nSTATS;\nmetrics;\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(response.find("\"pong\": true") != std::string::npos)
      << response;
  // STATS: the metrics registry as one JSON object.
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response.rfind("{\"id\": 2, \"status\": \"ok\", \"metrics\": {", 0),
            0u)
      << response;
  EXPECT_EQ(testing::JsonObjectKeys(response),
            (std::vector<std::string>{"id", "status", "metrics"}))
      << response;
  EXPECT_TRUE(response.find("\"knnq_server_query_latency_seconds\": "
                            "{\"count\": ") != std::string::npos)
      << response;
  // METRICS (case-insensitive): Prometheus text exposition, wrapped in
  // the JSON envelope.
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  EXPECT_TRUE(response.find("\"prometheus\": \"") != std::string::npos)
      << response;
  EXPECT_TRUE(response.find("# HELP knnq_server_requests_total") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("# TYPE knnq_server_requests_total counter") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("knnq_engine_queries_total") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(
      response.find("knnq_server_query_latency_seconds_bucket") !=
      std::string::npos)
      << response;
  EXPECT_TRUE(response.find("le=\\\"+Inf\\\"") != std::string::npos)
      << response;
}

TEST(ServerAdminTest, StatsKeysAreTheMetricsNamesInOrder) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  std::string query, stats, metrics;
  ASSERT_TRUE(client.Send(std::string(kQuery) + "\n"));
  ASSERT_TRUE(client.ReadLine(&query));
  ASSERT_TRUE(IsOk(query)) << query;
  ASSERT_TRUE(client.Send("STATS;\nMETRICS;\n"));
  ASSERT_TRUE(client.ReadLine(&stats));
  ASSERT_TRUE(client.ReadLine(&metrics));
  ASSERT_TRUE(HasId(stats, 2)) << stats;
  // One registry renders both: every METRICS family is a STATS key,
  // in the same order, and nothing else is.
  const std::vector<std::string> names =
      testing::PrometheusTypeNames(metrics);
  ASSERT_GT(names.size(), 40u) << metrics;
  EXPECT_EQ(testing::JsonMemberKeys(stats, "metrics"), names) << stats;
  // The query had counted by the time STATS rendered.
  EXPECT_EQ(testing::JsonNumber(stats, "knnq_server_requests_total"), 2.0);
  EXPECT_EQ(testing::JsonNumber(stats, "knnq_engine_queries_total"), 1.0);
}

TEST(ServerAdminTest, DurableServerReportsWalMetricsInStats) {
  const std::string dir = ::testing::TempDir() + "/knnq_server_wal_stats";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  durability::DurabilityOptions durable_options;
  durable_options.data_dir = dir;
  durable_options.sync = durability::WalSyncPolicy::kNone;
  auto manager = durability::DurabilityManager::Open(durable_options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EngineOptions engine_options = ServerFixture::DefaultEngine();
  engine_options.wal = manager->get();
  QueryEngine engine(MakeServerCatalog(), engine_options);
  const ServerOptions options;
  Server server(&engine, options);
  (*manager)->RegisterMetrics(server.registry());
  ASSERT_TRUE((*manager)->Recover(&engine).ok());
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string stats;
  ASSERT_TRUE(client.Send("STATS;\n"));
  ASSERT_TRUE(client.ReadLine(&stats));
  const std::vector<std::string> keys =
      testing::JsonMemberKeys(stats, "metrics");
  std::vector<std::string> wal_keys;
  for (const std::string& key : keys) {
    if (key.starts_with("knnq_server_wal_")) wal_keys.push_back(key);
  }
  EXPECT_EQ(wal_keys,
            (std::vector<std::string>{
                "knnq_server_wal_appends_total", "knnq_server_wal_bytes_total",
                "knnq_server_wal_syncs_total",
                "knnq_server_wal_snapshots_total",
                "knnq_server_wal_replayed_records_total",
                "knnq_server_wal_size_bytes", "knnq_server_wal_last_lsn",
                "knnq_server_wal_unsynced_ops",
                "knnq_server_wal_fsync_lag_seconds"}))
      << stats;

  // Every applied DML statement appends exactly one WAL record.
  const double appends =
      testing::JsonNumber(stats, "knnq_server_wal_appends_total");
  const double lsn = testing::JsonNumber(stats, "knnq_server_wal_last_lsn");
  ASSERT_GE(appends, 0.0) << stats;
  ASSERT_GE(lsn, 0.0) << stats;
  for (int i = 1; i <= 3; ++i) {
    std::string response;
    ASSERT_TRUE(client.Send("INSERT INTO e VALUES (" + std::to_string(i) +
                            ", 7);\nSTATS;\n"));
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_TRUE(IsOk(response)) << response;
    ASSERT_TRUE(client.ReadLine(&stats));
    EXPECT_EQ(testing::JsonNumber(stats, "knnq_server_wal_appends_total"),
              appends + i)
        << stats;
    EXPECT_EQ(testing::JsonNumber(stats, "knnq_server_wal_last_lsn"),
              lsn + i)
        << stats;
  }
  server.Stop();
}

TEST(ServerAdminTest, ExplainAnalyzeReturnsTheSpanTree) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(std::string("EXPLAIN ANALYZE ") + kQuery + "\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  // The analyze record: plan + stats + span tree, rendered by the same
  // JsonAnalyzeRecord the CLI's --json mode uses, so both surfaces
  // emit byte-identical records for the same run.
  EXPECT_TRUE(response.find("\"algorithm\": \"") != std::string::npos)
      << response;
  EXPECT_TRUE(response.find("\"explain\": \"") != std::string::npos)
      << response;
  EXPECT_TRUE(response.find("\"stats\": {") != std::string::npos)
      << response;
  EXPECT_TRUE(response.find(
                  "\"trace\": {\"name\": \"statement\"") !=
              std::string::npos)
      << response;
  for (const char* span : {"\"parse\"", "\"bind\"", "\"plan\"",
                           "\"execute\""}) {
    EXPECT_TRUE(response.find(span) != std::string::npos)
        << "missing span " << span << " in " << response;
  }
  EXPECT_TRUE(response.find("\"counters\": {") != std::string::npos)
      << response;

  // Plain EXPLAIN still answers without a trace, and the session keeps
  // serving.
  ASSERT_TRUE(client.Send(std::string("EXPLAIN ") + kQuery + "\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  EXPECT_TRUE(response.find("\"trace\"") == std::string::npos) << response;
}

TEST(ServerBackpressureTest, OverloadIsStructuredAndBounded) {
  ServerOptions options;
  options.max_inflight = 1;
  options.limits.max_conn_inflight = 64;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.pool_queue_limit = 64;
  ServerFixture fixture(options, engine_options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());

  // 32 pipelined heavy-ish queries against a 1-slot admission gate:
  // the gate must answer every statement - ok or a structured
  // `overloaded` rejection - and never drop or reorder ids.
  constexpr int kStatements = 32;
  std::string burst;
  for (int i = 0; i < kStatements; ++i) {
    burst += "SELECT KNN(hot, 64, AT(" + std::to_string(100 + i) +
             ", 200)) INTERSECT KNN(hot, 64, AT(300, " +
             std::to_string(100 + i) + "));\n";
  }
  ASSERT_TRUE(client.Send(burst));

  std::set<std::uint64_t> ids;
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (int i = 0; i < kStatements; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    ids.insert(IdOf(response));
    if (IsOk(response)) {
      ++ok;
    } else {
      EXPECT_TRUE(response.find("\"code\": \"Unavailable\"") !=
                  std::string::npos)
          << response;
      EXPECT_TRUE(response.find("overloaded") != std::string::npos)
          << response;
      ++overloaded;
    }
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kStatements));
  EXPECT_EQ(ok + overloaded, static_cast<std::size_t>(kStatements));
  EXPECT_GE(ok, 1u);  // The gate admits work; it does not deadlock.
  EXPECT_EQ(fixture.server.metrics().overload_rejections.Value(),
            overloaded);
}

TEST(AdmissionControllerTest, GateSemantics) {
  server::AdmissionController gate(2);
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_FALSE(gate.TryAcquire());
  gate.Release();
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_EQ(gate.in_flight(), 2u);
  gate.Release();
  gate.Release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

// ------------------------------------------------------------ shutdown

TEST(ServerShutdownTest, GracefulStopDrainsInFlightQueries) {
  ServerOptions options;
  // The whole burst must be admittable: this test is about the drain,
  // not about backpressure.
  options.max_inflight = 64;
  options.limits.max_conn_inflight = 64;
  ServerFixture fixture(options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  constexpr int kStatements = 24;
  std::string burst;
  for (int i = 0; i < kStatements; ++i) {
    burst += "SELECT KNN(hot, 32, AT(" + std::to_string(10 * i) +
             ", 50)) INTERSECT KNN(hot, 32, AT(60, " +
             std::to_string(10 * i) + "));\n";
  }
  ASSERT_TRUE(client.Send(burst));
  // Stop concurrently with the burst: every statement the server had
  // accepted must still be answered (a dense id prefix 1..k - queries
  // complete out of order but none admitted is dropped), then a clean
  // EOF with no truncated line.
  fixture.server.Stop();
  std::set<std::uint64_t> ids;
  std::string response;
  while (client.ReadLine(&response, /*timeout_ms=*/2000)) {
    EXPECT_TRUE(IsOk(response)) << response;
    ids.insert(IdOf(response));
  }
  std::set<std::uint64_t> expected;
  for (std::uint64_t id = 1; id <= ids.size(); ++id) expected.insert(id);
  EXPECT_EQ(ids, expected);
  // Stop is idempotent.
  fixture.server.Stop();
}

TEST(ServerShutdownTest, ShutdownVerbStopsTheServer) {
  ServerOptions options;
  options.allow_remote_shutdown = true;
  ServerFixture fixture(options);
  const auto response = server::SendAdminVerb(
      "127.0.0.1", fixture.server.port(), "SHUTDOWN");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->find("\"shutting_down\": true") !=
              std::string::npos)
      << *response;
  fixture.server.WaitUntilStopRequested();
  fixture.server.Stop();
  // The listener is gone.
  TestClient late(fixture.server.port());
  std::string line;
  EXPECT_FALSE(late.ReadLine(&line, /*timeout_ms=*/200));
}

TEST(ServerShutdownTest, ShutdownVerbIsDisabledByDefault) {
  // allow_remote_shutdown defaults to false: an unauthenticated peer
  // must not be able to stop a server it can merely connect to.
  ServerFixture fixture;
  const auto response = server::SendAdminVerb(
      "127.0.0.1", fixture.server.port(), "SHUTDOWN");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->find("\"code\": \"Unsupported\"") !=
              std::string::npos)
      << *response;
  // Still serving.
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING;\n"));
  std::string line;
  EXPECT_TRUE(client.ReadLine(&line));
}

// --------------------------------------------------- stuck/slow peers

/// A query whose two 400-NN sets around nearby centers overlap almost
/// entirely: the response carries hundreds of rows, enough to fill a
/// small socket send buffer within a few responses.
std::string BigQuery(int i) {
  return "SELECT KNN(hot, 400, AT(" + std::to_string(400 + i % 7) +
         ", 400)) INTERSECT KNN(hot, 400, AT(401, 399));";
}

TEST(ServerStuckPeerTest, WriteTimeoutFreesEngineWorkers) {
  ServerOptions options;
  options.sndbuf_bytes = 4096;
  options.write_timeout_ms = 200;
  options.max_inflight = 64;
  options.limits.max_conn_inflight = 64;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.pool_queue_limit = 256;
  ServerFixture fixture(options, engine_options);

  // A client that pipelines big-payload queries and never reads: its
  // responses wedge in send() until the write deadline fires. Slots
  // and workers must come back; a fresh client must still be served.
  TestClient stuck(fixture.server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(stuck.connected());
  std::string burst;
  for (int i = 0; i < 48; ++i) burst += BigQuery(i) + "\n";
  ASSERT_TRUE(stuck.Send(burst));
  for (int i = 0;
       i < 500 && fixture.server.metrics().write_timeouts.Value() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(fixture.server.metrics().write_timeouts.Value(), 1u);
  // The broken connection must tear itself down (reader notices the
  // flag and exits) rather than pinning its slot until the peer
  // closes: otherwise stuck peers accumulate against max_connections.
  for (int i = 0;
       i < 500 && fixture.server.metrics().connections_closed.Value() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(fixture.server.metrics().connections_closed.Value(), 1u);

  TestClient healthy(fixture.server.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(healthy.Send(std::string(kQuery) + "\n"));
  std::string response;
  ASSERT_TRUE(healthy.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  fixture.server.Stop();
}

TEST(ServerStuckPeerTest, StopEscalatesWhenPeerStopsReading) {
  ServerOptions options;
  options.sndbuf_bytes = 4096;
  // The per-write deadline is off: the shutdown grace escalation must
  // bound the drain by itself.
  options.write_timeout_ms = 0;
  options.shutdown_grace_ms = 300;
  options.max_inflight = 64;
  options.limits.max_conn_inflight = 64;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.pool_queue_limit = 256;
  ServerFixture fixture(options, engine_options);

  TestClient stuck(fixture.server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(stuck.connected());
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += BigQuery(i) + "\n";
  ASSERT_TRUE(stuck.Send(burst));
  // Let a writer actually block on the full socket first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto start = std::chrono::steady_clock::now();
  fixture.server.Stop();  // Must return: grace, then SHUT_RDWR.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(ServerStuckPeerTest, DrainingConnectionStaysCounted) {
  ServerOptions options;
  options.sndbuf_bytes = 4096;
  // No per-write deadline, and a grace long enough to look inside the
  // drain: the stuck peer is cut only after 2 s without progress.
  options.write_timeout_ms = 0;
  options.shutdown_grace_ms = 2000;
  options.max_inflight = 64;
  options.limits.max_conn_inflight = 64;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.pool_queue_limit = 256;
  ServerFixture fixture(options, engine_options);

  TestClient stuck(fixture.server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(stuck.connected());
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += BigQuery(i) + "\n";
  ASSERT_TRUE(stuck.Send(burst));
  // Let a writer block on the full socket first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::thread stopper([&fixture] { fixture.server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Mid-drain: queries are still in flight on the stuck connection,
  // and the connection they belong to is still open.
  EXPECT_GE(fixture.server.in_flight(), 1u);
  EXPECT_GE(fixture.server.active_connections(), 1u);
  stopper.join();
  EXPECT_EQ(fixture.server.active_connections(), 0u);
}

TEST(ServerStuckPeerTest, ConnectionCapRefusesExtraClients) {
  ServerOptions options;
  options.max_connections = 2;
  ServerFixture fixture(options);
  TestClient a(fixture.server.port());
  TestClient b(fixture.server.port());
  std::string response;
  // Both inside the cap and registered (their PINGs answered).
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(a.Send("PING;\n"));
  ASSERT_TRUE(a.ReadLine(&response));
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(b.Send("PING;\n"));
  ASSERT_TRUE(b.ReadLine(&response));
  // The third gets one structured refusal line and EOF.
  TestClient c(fixture.server.port());
  ASSERT_TRUE(c.ReadLine(&response));
  EXPECT_TRUE(response.find("\"code\": \"Unavailable\"") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("max_connections") != std::string::npos)
      << response;
  EXPECT_TRUE(c.ReadEof());
  EXPECT_EQ(fixture.server.metrics().connection_rejections.Value(), 1u);
  // The registered clients are unaffected.
  ASSERT_TRUE(a.Send("PING;\n"));
  EXPECT_TRUE(a.ReadLine(&response));
}

// ------------------------------------------------- LOAD confinement

TEST(ServerLoadDirTest, LoadDisabledWithoutLoadDir) {
  ServerFixture fixture;
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("LOAD e FROM '/tmp/anything.csv';\n"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(response.find("\"code\": \"Unsupported\"") !=
              std::string::npos)
      << response;
  EXPECT_TRUE(response.find("LOAD is disabled") != std::string::npos)
      << response;
}

TEST(ServerLoadDirTest, LoadConfinedToLoadDir) {
  ASSERT_TRUE(
      SaveCsv(testing::MakeUniform(500, 3), "/tmp/knnq_load_test.csv")
          .ok());
  ServerOptions options;
  options.limits.load_dir = "/tmp";
  ServerFixture fixture(options);
  TestClient client(fixture.server.port());
  ASSERT_TRUE(client.connected());
  std::string response;
  // An absolute path inside the directory loads.
  ASSERT_TRUE(client.Send("LOAD e FROM '/tmp/knnq_load_test.csv';\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  // A relative path resolves under load_dir (not the server's CWD).
  ASSERT_TRUE(client.Send("LOAD e FROM 'knnq_load_test.csv';\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_TRUE(IsOk(response)) << response;
  // Escapes - absolute or via '..' - are refused before any
  // filesystem access.
  for (const char* statement :
       {"LOAD e FROM '/etc/hostname';\n",
        "LOAD e FROM '../etc/hostname';\n"}) {
    ASSERT_TRUE(client.Send(statement));
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_TRUE(response.find("\"code\": \"InvalidArgument\"") !=
                std::string::npos)
        << response;
    EXPECT_TRUE(response.find("escapes the load directory") !=
                std::string::npos)
        << response;
  }
}

// ------------------------------------------- concurrency (TSan target)

TEST(ServerConcurrencyTest, ClientsRaceDmlAgainstQueries) {
  ServerOptions options;
  options.max_inflight = 32;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  engine_options.pool_queue_limit = 256;
  engine_options.cache_mb = 8;  // Exercise invalidation too.
  ServerFixture fixture(options, engine_options);

  constexpr int kQueryClients = 3;
  constexpr int kDmlClients = 2;
  constexpr int kIterations = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;

  for (int c = 0; c < kQueryClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(fixture.server.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      std::string response;
      for (int i = 0; i < kIterations; ++i) {
        const std::string x = std::to_string(50 + (c * 37 + i * 11) % 800);
        if (!client.Send("SELECT KNN(hot, 8, AT(" + x +
                         ", 300)) INTERSECT KNN(hot, 8, AT(400, " + x +
                         "));\n") ||
            !client.ReadLine(&response) ||
            !HasId(response, static_cast<std::uint64_t>(i + 1)) ||
            !IsOk(response)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int c = 0; c < kDmlClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(fixture.server.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      std::string response;
      for (int i = 0; i < kIterations; ++i) {
        const std::string statement =
            i % 2 == 0
                ? "INSERT INTO hot VALUES (" + std::to_string(100 + i) +
                      ", " + std::to_string(200 + c) + ");"
                : "DELETE FROM hot WHERE ID = " +
                      std::to_string(1000000 + c * 1000 + i) + ";";
        if (!client.Send(statement + "\n") ||
            !client.ReadLine(&response) ||
            !HasId(response, static_cast<std::uint64_t>(i + 1)) ||
            !IsOk(response)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fixture.server.metrics().errors.Value(), 0u);
  fixture.server.Stop();
}

// ------------------------------------------------- differential gate

/// Strips the volatile `"stats": {...}` suffix (wall times differ run
/// to run); everything before it - rows, algorithm, text - must match
/// byte for byte.
std::string StripStats(const std::string& record) {
  const std::size_t at = record.find(", \"stats\": {");
  return at == std::string::npos ? record : record.substr(0, at);
}

/// The "-- relations: a b c" header of a committed example script.
std::vector<std::string> RelationsOf(const std::string& script) {
  std::vector<std::string> names;
  std::istringstream lines(script);
  std::string line;
  while (std::getline(lines, line)) {
    constexpr std::string_view kHeader = "-- relations: ";
    if (line.rfind(kHeader, 0) == 0) {
      std::istringstream words(line.substr(kHeader.size()));
      std::string word;
      while (words >> word) names.push_back(word);
      break;
    }
  }
  return names;
}

/// What the server must answer for one statement, computed against a
/// twin engine. Mirrors the session's dispatch exactly (the shared
/// renderers in src/server/wire.h make this byte-accurate).
std::string ExpectedRecord(QueryEngine& engine,
                           const knnql::Statement& statement) {
  if (const auto* query = std::get_if<knnql::Query>(&statement.body)) {
    auto spec = engine.BindQuery(*query);
    if (!spec.ok()) return server::JsonErrorRecord("", "", spec.status());
    const std::string text = knnql::Unparse(*spec);
    if (statement.explain) {
      const auto explain = engine.Explain(*spec);
      if (!explain.ok()) {
        return server::JsonErrorRecord("query", text, explain.status());
      }
      return server::JsonExplainRecord(text, *explain);
    }
    const EngineResult run = engine.Run(*spec);
    if (!run.ok()) {
      return server::JsonErrorRecord("query", text, run.status);
    }
    return server::JsonQueryRecord(text, run);
  }
  auto dml = knnql::BindDml(statement.body, nullptr);
  if (!dml.ok()) return server::JsonErrorRecord("", "", dml.status());
  const std::string text = knnql::Unparse(*dml);
  const EngineResult run = engine.ExecuteDml(*dml);
  if (!run.ok()) {
    return server::JsonErrorRecord("statement", text, run.status);
  }
  return server::JsonDmlRecord(text, run);
}

TEST(ServerDifferentialTest, ResponsesMatchLocalExecutionOnExamples) {
  const std::filesystem::path dir =
      std::filesystem::path(KNNQ_SOURCE_DIR) / "examples" / "queries";
  // live_updates.knnql reloads from this committed path.
  ASSERT_TRUE(
      SaveCsv(testing::MakeCity(5000, 77), "/tmp/smoke.csv").ok());

  std::vector<std::filesystem::path> scripts;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".knnql") {
      scripts.push_back(entry.path());
    }
  }
  std::sort(scripts.begin(), scripts.end());
  ASSERT_FALSE(scripts.empty());

  for (const auto& path : scripts) {
    SCOPED_TRACE(path.filename().string());
    auto script_text = ReadTextFile(path.string());
    ASSERT_TRUE(script_text.ok()) << script_text.status().ToString();
    const std::vector<std::string> relations = RelationsOf(*script_text);
    ASSERT_FALSE(relations.empty());

    // Twin catalogs from identical data; twin engines, cache on for
    // the server (responses must not depend on it).
    const auto make_catalog = [&relations] {
      Catalog catalog;
      std::uint64_t seed = 101;
      for (const std::string& name : relations) {
        EXPECT_TRUE(
            catalog.AddRelation(name, testing::MakeCity(4000, seed++))
                .ok());
      }
      return catalog;
    };
    EngineOptions server_engine_options;
    server_engine_options.num_threads = 2;
    server_engine_options.cache_mb = 8;
    QueryEngine served(make_catalog(), server_engine_options);
    EngineOptions local_options;
    local_options.num_threads = 1;
    QueryEngine local(make_catalog(), local_options);

    ServerOptions server_options;
    server_options.limits.load_dir = "/tmp";  // live_updates LOADs here.
    Server server(&served, server_options);
    ASSERT_TRUE(server.Start().ok());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    auto statements = server::SplitStatements(*script_text);
    ASSERT_TRUE(statements.ok()) << statements.status().ToString();
    std::uint64_t id = 0;
    for (const std::string& statement : *statements) {
      const auto parsed = knnql::ParseScript(statement);
      ASSERT_TRUE(parsed.ok())
          << parsed.status().ToString() << "\n in: " << statement;
      if (parsed->empty()) continue;  // Comment-only: no response.
      // Closed loop keeps the two engines in lockstep across DML.
      ASSERT_TRUE(client.Send(statement + "\n"));
      std::string response;
      ASSERT_TRUE(client.ReadLine(&response)) << statement;
      const std::string expected = server::WithId(
          ++id, ExpectedRecord(local, parsed->front()));
      EXPECT_EQ(StripStats(response), StripStats(expected))
          << "statement: " << statement;
    }
    server.Stop();
  }
}

/// End-to-end loadgen sweep over one example workload: every response
/// ok, ids in order, on several concurrent connections.
TEST(ServerLoadgenTest, ConcurrentReplayIsClean) {
  ServerFixture fixture;
  const std::vector<std::string> statements = {
      "SELECT KNN(e, 5, AT(100, 100)) INTERSECT KNN(e, 5, AT(120, 90));",
      "EXPLAIN SELECT KNN(hot, 3, AT(10, 10)) INTERSECT "
      "KNN(hot, 4, AT(20, 20));",
      "JOIN KNN(e, hot, 2) WHERE INNER IN RANGE(0, 0, 400, 300);",
  };
  server::LoadgenOptions options;
  options.port = fixture.server.port();
  options.clients = 6;
  options.repeat = 10;
  const auto report = server::RunLoadgen(options, statements);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 6u * 10u * 3u);
  EXPECT_EQ(report->ok_responses, report->requests);
  EXPECT_TRUE(report->clean());
  EXPECT_GT(report->p50_ms, 0.0);
  EXPECT_GE(report->p99_ms, report->p50_ms);
}

}  // namespace
}  // namespace knnq
