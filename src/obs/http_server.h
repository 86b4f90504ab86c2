// HttpServer: the minimal dependency-free HTTP/1.1 endpoint behind the
// observability plane (GET /metrics, /healthz, /readyz, /statusz).
//
// Deliberately not a web server: GET/HEAD only, request-line + header
// parsing only (a body is refused), exact-path handlers, keep-alive
// with strict wall-clock timeouts on both the read of a request head
// and the write of a response. The socket lifecycle is the KNNQL
// server's: a TcpListener (src/common/tcp_listener.h) accepts, gives
// each connection a thread, and bounds the connection count (beyond
// it, accepts are answered 503 and closed) so a scrape storm cannot
// starve the serving plane. This class keeps request parsing, routing
// and the 431/400/405/505 answers.
//
// Lives in obs (depends only on common): handlers are closures, so the
// owning server wires /metrics to its registry without this layer
// knowing what a registry is.

#ifndef KNNQ_SRC_OBS_HTTP_SERVER_H_
#define KNNQ_SRC_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/tcp_listener.h"

namespace knnq::obs {

struct HttpServerOptions {
  /// Listen address; defaults to loopback like the KNNQL plane.
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;

  /// Concurrently open scrape connections; beyond it an accept is
  /// answered with a minimal 503 and closed. 0 means unlimited.
  std::size_t max_connections = 32;

  /// Wall-clock budget for receiving one COMPLETE request head. A
  /// peer that trickles bytes (or sends none) is cut when it expires,
  /// so a stalled scraper cannot pin a connection slot.
  int read_timeout_ms = 5000;

  /// Wall-clock budget for writing one response (SO_SNDTIMEO bounds
  /// each send so the deadline is actually checked).
  int write_timeout_ms = 5000;

  /// Longest request head accepted; beyond it the connection is
  /// answered 431 and closed.
  std::size_t max_request_bytes = 16 * 1024;

  /// Requests served over one keep-alive connection before the server
  /// closes it (bounds how long a scraper may camp on a slot).
  std::size_t max_keepalive_requests = 1000;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// Handles one GET (the path already matched; query string, if any,
  /// was stripped). Runs on a connection thread; must be thread-safe.
  using Handler = std::function<HttpResponse()>;

  explicit HttpServer(HttpServerOptions options);

  /// Stops if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers the handler for an exact path ("/metrics"). Call before
  /// Start.
  void AddHandler(std::string path, Handler handler);

  /// Binds, listens and spawns the accept thread.
  Status Start() { return listener_.Start(); }

  /// Closes the listener, cuts open connections and joins everything.
  /// Scrapes are idempotent reads, so unlike the KNNQL plane there is
  /// no drain: a response racing Stop is simply cut short. Idempotent.
  void Stop();

  /// The bound port (after Start); useful with options.port = 0.
  std::uint16_t port() const { return listener_.port(); }

  std::size_t active_connections() const {
    return listener_.active_connections();
  }

  /// Requests answered (any status, 431 included) since Start - the
  /// knnq_http_requests_total source.
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Answers requests on one connection until it must close.
  void Serve(TcpConnection& conn);

  /// One request-response exchange. Returns false when the connection
  /// must close (error, timeout, Connection: close).
  bool ServeOne(TcpConnection& conn, std::string* buffer);

  /// Parses a complete request head and answers it: the handler's
  /// response, or a 404/400/405/505. Sets whether the connection stays
  /// open and whether the body is suppressed (HEAD).
  HttpResponse Route(std::string_view head, bool* keep_alive,
                     bool* head_only) const;

  bool WriteResponse(TcpConnection& conn, const HttpResponse& response,
                     bool keep_alive, bool head_only);

  HttpServerOptions options_;
  std::map<std::string, Handler> handlers_;
  std::atomic<std::uint64_t> requests_{0};
  /// Declared last: destroyed (its threads joined) before the
  /// handlers they call.
  TcpListener listener_;
};

}  // namespace knnq::obs

#endif  // KNNQ_SRC_OBS_HTTP_SERVER_H_
