// The HTTP observability plane: the dependency-free HTTP/1.1 server
// (parsing edge cases, keep-alive, timeouts, connection caps), the
// ring-buffer metrics history (wrap-around, monotone timestamps,
// snapshot consistency), and the Server integration - /metrics
// byte-identical to the in-process renderer, /readyz flipping through
// recovery and drain, and concurrent scrapes racing live traffic (the
// TSan target).

#include "src/obs/http_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/query_engine.h"
#include "src/obs/history.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using obs::HttpResponse;
using obs::HttpServer;
using obs::HttpServerOptions;
using obs::MetricsHistory;
using server::HttpGet;
using server::Server;
using server::ServerOptions;
using testing::TestClient;

int StatusOf(const std::string& response) {
  if (response.rfind("HTTP/1.", 0) != 0) return 0;
  return std::atoi(response.c_str() + std::strlen("HTTP/1.1 "));
}

// ------------------------------------------------ history ring buffer

TEST(MetricsHistoryTest, RingWrapsKeepingNewestSamples) {
  obs::MetricsRegistry registry;
  double tick = 0.0;
  registry.RegisterCallbackGauge("ticks", "t", [&tick] { return tick; });
  MetricsHistory history(&registry, {"ticks"},
                         {.interval_ms = 1000, .capacity = 4});
  for (int i = 0; i < 7; ++i) {
    tick = static_cast<double>(i);
    history.SampleOnce();
  }
  const obs::HistorySnapshot snap = history.Snapshot();
  ASSERT_EQ(snap.t_ms.size(), 4u);
  ASSERT_EQ(snap.values.size(), 1u);
  // Oldest first, and the first three samples fell off the front.
  EXPECT_EQ(snap.values[0], (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

TEST(MetricsHistoryTest, TimestampsMonotoneAcrossWrap) {
  obs::MetricsRegistry registry;
  registry.RegisterCallbackGauge("zero", "z", [] { return 0.0; });
  MetricsHistory history(&registry, {"zero"},
                         {.interval_ms = 1000, .capacity = 3});
  for (int i = 0; i < 8; ++i) {
    history.SampleOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const obs::HistorySnapshot snap = history.Snapshot();
  ASSERT_EQ(snap.t_ms.size(), 3u);
  for (std::size_t i = 1; i < snap.t_ms.size(); ++i) {
    EXPECT_LE(snap.t_ms[i - 1], snap.t_ms[i]);
  }
  // Timestamps are real wall-clock epochs (not steady offsets).
  EXPECT_GT(snap.t_ms.front(), 1'000'000'000'000ull);
}

TEST(MetricsHistoryTest, SnapshotSeriesShareLengthAndTimestamps) {
  obs::MetricsRegistry registry;
  registry.RegisterCallbackGauge("a", "a", [] { return 1.0; });
  registry.RegisterCallbackGauge("b", "b", [] { return 2.0; });
  registry.RegisterCallbackGauge("c", "c", [] { return 3.0; });
  MetricsHistory history(&registry, {"a", "b", "c"},
                         {.interval_ms = 1000, .capacity = 8});
  for (int i = 0; i < 5; ++i) history.SampleOnce();
  const obs::HistorySnapshot snap = history.Snapshot();
  ASSERT_EQ(snap.names.size(), 3u);
  ASSERT_EQ(snap.values.size(), 3u);
  for (const std::vector<double>& series : snap.values) {
    EXPECT_EQ(series.size(), snap.t_ms.size());
  }
  EXPECT_EQ(snap.t_ms.size(), 5u);
}

TEST(MetricsHistoryTest, StartTakesImmediateSampleAndRendersJson) {
  obs::MetricsRegistry registry;
  registry.RegisterCallbackGauge("answer", "a", [] { return 42.0; });
  MetricsHistory history(&registry, {"answer"},
                         {.interval_ms = 60'000, .capacity = 16});
  history.Start();
  // The t=0 sample lands before Start returns; no interval wait needed.
  EXPECT_EQ(history.Snapshot().t_ms.size(), 1u);
  const std::string json = history.RenderJson();
  EXPECT_NE(json.find("\"interval_ms\": 60000"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"answer\": [42]"), std::string::npos) << json;
  history.Stop();
}

TEST(MetricsHistoryTest, ConcurrentSamplersAndSnapshots) {
  obs::MetricsRegistry registry;
  std::atomic<double> value{0.0};
  registry.RegisterCallbackGauge("v", "v", [&value] { return value.load(); });
  MetricsHistory history(&registry, {"v"}, {.interval_ms = 1, .capacity = 4});
  history.Start();
  std::thread writer([&value] {
    for (int i = 0; i < 200; ++i) value.store(i);
  });
  for (int i = 0; i < 50; ++i) {
    const obs::HistorySnapshot snap = history.Snapshot();
    ASSERT_EQ(snap.values.size(), 1u);
    ASSERT_EQ(snap.values[0].size(), snap.t_ms.size());
  }
  writer.join();
  history.Stop();
}

TEST(MetricsHistoryTest, SamplesRegistryCountersAndRefusesUnknownNames) {
  obs::MetricsRegistry registry;
  obs::Counter hits;
  obs::Histogram latency;
  registry.RegisterCounter("hits_total", "h", &hits);
  registry.RegisterHistogram("wait_seconds", "w", &latency);
  MetricsHistory history(&registry, {"hits_total"});
  hits.Add(3);
  history.SampleOnce();
  hits.Add(2);
  history.SampleOnce();
  EXPECT_EQ(history.Snapshot().values[0], (std::vector<double>{3.0, 5.0}));

  // A series the registry lacks (or cannot read as one number) fails
  // at construction, not on the first sample.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(MetricsHistory(&registry, {"hits_total", "absent_total"}),
               "KNNQ_CHECK failed.*absent_total");
  EXPECT_DEATH(MetricsHistory(&registry, {"wait_seconds"}),
               "KNNQ_CHECK failed.*wait_seconds");
}

// ------------------------------------------------ http server basics

HttpServerOptions SmallHttp() {
  HttpServerOptions options;
  options.port = 0;
  return options;
}

TEST(HttpServerTest, DispatchesHandlerAndAnswers404Elsewhere) {
  HttpServer http(SmallHttp());
  http.AddHandler("/ping", [] {
    return HttpResponse{.status = 200,
                        .content_type = "text/plain; charset=utf-8",
                        .body = "pong"};
  });
  ASSERT_TRUE(http.Start().ok());
  auto ok = HttpGet("127.0.0.1", http.port(), "/ping");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "pong");

  // Query strings are stripped before dispatch.
  auto with_query = HttpGet("127.0.0.1", http.port(), "/ping?x=1");
  ASSERT_TRUE(with_query.ok());
  EXPECT_EQ(with_query->status, 200);

  auto missing = HttpGet("127.0.0.1", http.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(http.requests_served(), 3u);
  http.Stop();
}

TEST(HttpServerTest, MalformedRequestsAreRefused) {
  HttpServer http(SmallHttp());
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());

  {  // Not a request line at all.
    TestClient client(http.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("BOGUS\r\n\r\n"));
    EXPECT_EQ(StatusOf(client.ReadAll()), 400);
  }
  {  // Non-GET methods are rejected, not dispatched (keep-alive
     // survives a 405, so ask for close to frame the read).
    TestClient client(http.port());
    ASSERT_TRUE(
        client.Send("POST /ping HTTP/1.1\r\nConnection: close\r\n\r\n"));
    EXPECT_EQ(StatusOf(client.ReadAll()), 405);
  }
  {  // Unsupported protocol version.
    TestClient client(http.port());
    ASSERT_TRUE(client.Send("GET /ping HTTP/2.0\r\n\r\n"));
    EXPECT_EQ(StatusOf(client.ReadAll()), 505);
  }
  {  // A request body is refused (this is a read-only plane).
    TestClient client(http.port());
    ASSERT_TRUE(client.Send(
        "GET /ping HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"));
    EXPECT_EQ(StatusOf(client.ReadAll()), 400);
  }
  http.Stop();
}

TEST(HttpServerTest, OversizedHeadAnswered431) {
  HttpServerOptions options = SmallHttp();
  options.max_request_bytes = 256;
  HttpServer http(options);
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());
  TestClient client(http.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nX-Pad: " +
                          std::string(512, 'a') + "\r\n\r\n"));
  EXPECT_EQ(StatusOf(client.ReadAll()), 431);
  // A 431 is an answered request: it counts like the 200 after it.
  const auto ok = HttpGet("127.0.0.1", http.port(), "/ping");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(http.requests_served(), 2u);
  http.Stop();
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer http(SmallHttp());
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());
  TestClient client(http.port());
  ASSERT_TRUE(client.connected());
  std::string head;
  std::string body;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
    ASSERT_TRUE(client.ReadResponse(&head, &body)) << i;
    EXPECT_EQ(StatusOf(head), 200);
    EXPECT_EQ(body, "pong");
    EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos);
  }
  EXPECT_EQ(http.requests_served(), 5u);
  // All five rode one connection: the server saw no more than one.
  EXPECT_LE(http.active_connections(), 1u);

  // HTTP/1.0 defaults to close; the server honours it.
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.0\r\n\r\n"));
  ASSERT_TRUE(client.ReadResponse(&head, &body));
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(client.ReadEof());
  http.Stop();
}

TEST(HttpServerTest, HeadAnswersHeadersWithoutBody) {
  HttpServer http(SmallHttp());
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());
  TestClient client(http.port());
  ASSERT_TRUE(client.Send(
      "HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n"));
  const std::string raw = client.ReadAll();
  EXPECT_EQ(StatusOf(raw), 200);
  // Content-Length describes the suppressed body; nothing follows the
  // header terminator.
  EXPECT_NE(raw.find("Content-Length: 4"), std::string::npos);
  EXPECT_EQ(raw.find("pong"), std::string::npos);
  http.Stop();
}

TEST(HttpServerTest, SlowReaderCutAtDeadlineWithoutResponse) {
  HttpServerOptions options = SmallHttp();
  options.read_timeout_ms = 150;
  HttpServer http(options);
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());
  TestClient client(http.port());
  ASSERT_TRUE(client.connected());
  // A trickled, never-completed head: the server must cut the
  // connection (EOF, no response bytes) once the deadline expires.
  ASSERT_TRUE(client.Send("GET /pi"));
  EXPECT_TRUE(client.ReadEof(/*timeout_ms=*/5000));
  http.Stop();
}

TEST(HttpServerTest, ConnectionsBeyondCapRefusedWith503) {
  HttpServerOptions options = SmallHttp();
  options.max_connections = 1;
  HttpServer http(options);
  http.AddHandler("/ping", [] { return HttpResponse{.body = "pong"}; });
  ASSERT_TRUE(http.Start().ok());
  // Camp the only slot with a completed keep-alive exchange, so the
  // connection is past accept and provably registered.
  TestClient camper(http.port());
  ASSERT_TRUE(camper.Send("GET /ping HTTP/1.1\r\n\r\n"));
  std::string head;
  std::string body;
  ASSERT_TRUE(camper.ReadResponse(&head, &body));
  ASSERT_EQ(StatusOf(head), 200);

  TestClient refused(http.port());
  ASSERT_TRUE(refused.connected());
  const std::string raw = refused.ReadAll();
  EXPECT_EQ(StatusOf(raw), 503) << raw;
  http.Stop();
}

// ------------------------------------------------- server integration

Catalog MakeHttpCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("e", testing::MakeUniform(1500, 11)).ok());
  return catalog;
}

EngineOptions SmallEngine() {
  EngineOptions options;
  options.num_threads = 2;
  options.pool_queue_limit = 128;
  return options;
}

ServerOptions HttpServerEnabled() {
  ServerOptions options;
  options.http_enabled = true;
  options.history = {.interval_ms = 50, .capacity = 64};
  return options;
}

struct HttpFixture {
  HttpFixture() : engine(MakeHttpCatalog(), SmallEngine()),
                  server(&engine, HttpServerEnabled()) {
    const Status started = server.Start();  // Start() implies StartHttp.
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_NE(server.http_port(), 0);
  }

  QueryEngine engine;
  Server server;
};

constexpr const char* kQuery =
    "SELECT KNN(e, 3, AT(100, 100)) INTERSECT KNN(e, 4, AT(120, 90));";

/// One KNNQL statement over a fresh connection; returns the response
/// line ("" on transport failure).
std::string SendStatement(std::uint16_t port, const std::string& text) {
  const auto response =
      server::SendAdminVerb("127.0.0.1", port, text.substr(0, text.size() - 1));
  return response.ok() ? *response : std::string();
}

/// Returns `body` with the value of its resident-set sample replaced
/// by "<rss>", storing the value in `*rss` (-1 when the sample is
/// missing). RSS is the one series two back-to-back renders need not
/// agree on: under ASan the allocator's quarantine holds freed memory,
/// so the resident set grows with every render.
std::string MaskResidentMemory(const std::string& body, double* rss) {
  const std::string series = "\nknnq_process_resident_memory_bytes ";
  *rss = -1.0;
  const std::size_t at = body.find(series);
  if (at == std::string::npos) return body;
  const std::size_t begin = at + series.size();
  const std::size_t end = std::min(body.find('\n', begin), body.size());
  *rss = std::strtod(body.substr(begin, end - begin).c_str(), nullptr);
  return body.substr(0, begin) + "<rss>" + body.substr(end);
}

TEST(HttpPlaneTest, MetricsBodyByteIdenticalToInProcessRender) {
  HttpFixture fixture;
  // A keep-alive connection holds the scrape thread alive across the
  // comparison, so thread-count and connection gauges cannot drift
  // between the two renders. Retry absorbs the remaining wobble (the
  // floored uptime second ticking over). Every line is compared byte
  // for byte except the RSS sample's value, which only has to be
  // present and positive on both planes.
  TestClient client(fixture.server.http_port());
  ASSERT_TRUE(client.connected());
  bool identical = false;
  std::string body;
  std::string direct;
  double body_rss = -1.0;
  double direct_rss = -1.0;
  for (int attempt = 0; attempt < 20 && !identical; ++attempt) {
    std::string head;
    ASSERT_TRUE(client.Send("GET /metrics HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(client.ReadResponse(&head, &body));
    ASSERT_EQ(StatusOf(head), 200);
    EXPECT_NE(head.find("text/plain; version=0.0.4"), std::string::npos);
    direct = fixture.server.RenderPrometheus();
    identical = MaskResidentMemory(body, &body_rss) ==
                MaskResidentMemory(direct, &direct_rss);
  }
  EXPECT_TRUE(identical) << "GET /metrics body:\n"
                         << body << "\nRenderPrometheus():\n"
                         << direct;
  EXPECT_GT(body_rss, 0.0) << "GET /metrics lacks a positive RSS sample";
  EXPECT_GT(direct_rss, 0.0)
      << "RenderPrometheus() lacks a positive RSS sample";
}

TEST(HttpPlaneTest, SelfInstrumentationGaugesExposedOnBothPlanes) {
  HttpFixture fixture;
  const auto scrape =
      HttpGet("127.0.0.1", fixture.server.http_port(), "/metrics");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_EQ(scrape->status, 200);
  const std::string verb = SendStatement(fixture.server.port(), "METRICS;");
  ASSERT_FALSE(verb.empty());
  const std::string stats = SendStatement(fixture.server.port(), "STATS;");
  const auto statusz =
      HttpGet("127.0.0.1", fixture.server.http_port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  const std::vector<std::string> stats_keys =
      testing::JsonMemberKeys(stats, "metrics");
  const std::vector<std::string> statusz_keys =
      testing::JsonMemberKeys(statusz->body, "metrics");
  for (const char* name :
       {"knnq_build_info", "knnq_process_uptime_seconds",
        "knnq_process_resident_memory_bytes", "knnq_process_open_fds",
        "knnq_process_threads", "knnq_engine_pool_queue_depth",
        "knnq_engine_pool_threads", "knnq_server_active_connections",
        "knnq_http_requests_total", "knnq_http_active_connections",
        "knnq_engine_max_arena_bytes"}) {
    EXPECT_NE(scrape->body.find(std::string("\n") + name + " "),
              std::string::npos)
        << name << " missing from GET /metrics";
    EXPECT_NE(verb.find(std::string("\\n") + name + " "), std::string::npos)
        << name << " missing from the METRICS verb payload";
    EXPECT_EQ(std::count(stats_keys.begin(), stats_keys.end(), name), 1)
        << name << " missing from STATS: " << stats;
    EXPECT_EQ(std::count(statusz_keys.begin(), statusz_keys.end(), name), 1)
        << name << " missing from /statusz: " << statusz->body;
  }
  // The pool gauge reads the engine's pool; the scrape that answers
  // /statusz holds an HTTP connection open while it renders.
  EXPECT_EQ(testing::JsonNumber(stats, "knnq_engine_pool_threads"),
            static_cast<double>(fixture.engine.num_threads()));
  EXPECT_GE(testing::JsonNumber(statusz->body, "knnq_http_active_connections"),
            1.0);
}

TEST(HttpPlaneTest, HealthzReadyzStatuszAnswer) {
  HttpFixture fixture;
  const std::uint16_t port = fixture.server.http_port();

  auto healthz = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  EXPECT_EQ(healthz->body, "ok\n");

  auto readyz = HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 200);

  auto statusz = HttpGet("127.0.0.1", port, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  EXPECT_EQ(testing::JsonObjectKeys(statusz->body),
            (std::vector<std::string>{"status", "build", "uptime_seconds",
                                      "ready", "not_ready_reasons",
                                      "metrics", "history"}))
      << statusz->body;
  for (const char* field :
       {"\"status\": \"ok\"", "\"version\"", "\"ready\": true",
        "\"not_ready_reasons\": []", "\"interval_ms\""}) {
    EXPECT_NE(statusz->body.find(field), std::string::npos)
        << field << " missing from /statusz: " << statusz->body;
  }
  // Its metrics object is the registry: the METRICS names, in order.
  EXPECT_EQ(testing::JsonMemberKeys(statusz->body, "metrics"),
            testing::PrometheusTypeNames(fixture.server.RenderPrometheus()));
}

TEST(HttpPlaneTest, StatuszCarriesNonEmptySampledSeries) {
  HttpFixture fixture;
  // Two sampler intervals (50 ms each) on top of the t=0 sample.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const auto statusz =
      HttpGet("127.0.0.1", fixture.server.http_port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  ASSERT_EQ(statusz->status, 200);
  // At least two series present and non-empty: `"name": [digit`.
  std::size_t non_empty = 0;
  for (const char* name :
       {"knnq_server_requests_total", "knnq_engine_queries_total",
        "knnq_server_in_flight", "knnq_process_resident_memory_bytes"}) {
    const std::size_t at = statusz->body.find("\"" + std::string(name) +
                                              "\": [");
    if (at == std::string::npos) continue;
    const char next =
        statusz->body[at + std::strlen(name) + std::strlen("\"\": [")];
    if (next != ']') ++non_empty;
  }
  EXPECT_GE(non_empty, 2u) << statusz->body;
}

TEST(HttpPlaneTest, HistoryVerbReturnsSampledSeries) {
  HttpFixture fixture;
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const auto response =
      server::SendAdminVerb("127.0.0.1", fixture.server.port(), "HISTORY");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response->find("\"history\""), std::string::npos);
  EXPECT_NE(response->find("\"series\""), std::string::npos);
  EXPECT_NE(response->find("\"knnq_server_requests_total\": ["),
            std::string::npos)
      << *response;
}

TEST(HttpPlaneTest, ReadyzFlipsThroughRecoveryStartAndDrain) {
  QueryEngine engine(MakeHttpCatalog(), SmallEngine());
  Server server(&engine, HttpServerEnabled());

  // The recovery bracket: plane up, KNNQL accept loop not yet.
  server.BeginRecovery();
  ASSERT_TRUE(server.StartHttp().ok());
  const std::uint16_t port = server.http_port();
  ASSERT_NE(port, 0);

  auto readyz = HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 503);
  EXPECT_NE(readyz->body.find("recovery in progress"), std::string::npos);

  // Recovery done but not yet serving: still not ready.
  server.EndRecovery();
  readyz = HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 503);
  EXPECT_NE(readyz->body.find("accept loop not started"),
            std::string::npos);

  // /healthz stays 200 throughout - liveness, not readiness.
  auto healthz = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);

  ASSERT_TRUE(server.Start().ok());
  readyz = HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 200);
  EXPECT_EQ(readyz->body, "ok\n");

  // A requested stop flips readiness before the drain completes.
  server.RequestStop();
  readyz = HttpGet("127.0.0.1", port, "/readyz");
  ASSERT_TRUE(readyz.ok());
  EXPECT_EQ(readyz->status, 503);
  EXPECT_NE(readyz->body.find("draining"), std::string::npos);
  server.Stop();
}

TEST(HttpPlaneTest, ScrapesRaceLiveTrafficCleanly) {
  HttpFixture fixture;
  const std::uint16_t knnql_port = fixture.server.port();
  const std::uint16_t http_port = fixture.server.http_port();
  std::atomic<int> bad_queries{0};
  std::atomic<int> bad_scrapes{0};

  std::vector<std::thread> threads;
  // Live traffic: queries and DML through the KNNQL plane.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string statement =
            (i % 5 == 4) ? "INSERT INTO e VALUES (" +
                               std::to_string(900.0 + t) + ", " +
                               std::to_string(i) + ");"
                         : std::string(kQuery);
        const std::string response = SendStatement(knnql_port, statement);
        if (response.find("\"status\": \"ok\"") == std::string::npos) {
          ++bad_queries;
        }
      }
    });
  }
  // Concurrent scrapers over every endpoint.
  for (const char* path : {"/metrics", "/statusz", "/readyz"}) {
    threads.emplace_back([&, path] {
      for (int i = 0; i < 25; ++i) {
        const auto scrape = HttpGet("127.0.0.1", http_port, path);
        if (!scrape.ok() || scrape->status != 200) ++bad_scrapes;
      }
    });
  }
  // And the sampler is exercised implicitly (50 ms interval).
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad_queries.load(), 0);
  EXPECT_EQ(bad_scrapes.load(), 0);
}

}  // namespace
}  // namespace knnq
