#include "src/obs/http_server.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <string_view>
#include <utility>

namespace knnq::obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

/// Case-insensitive ASCII comparison for header names and tokens.
bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimSpaces(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// End of the request head: "\r\n\r\n" (or a bare "\n\n" from sloppy
/// probes). Returns npos while incomplete; *head_len is the offset of
/// the first body byte when found.
std::size_t FindHeadEnd(const std::string& buffer, std::size_t* head_len) {
  if (const std::size_t p = buffer.find("\r\n\r\n");
      p != std::string::npos) {
    *head_len = p + 4;
    return p;
  }
  if (const std::size_t p = buffer.find("\n\n"); p != std::string::npos) {
    *head_len = p + 2;
    return p;
  }
  return std::string::npos;
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)),
      listener_(
          TcpListenerOptions{
              .host = options_.host,
              .port = options_.port,
              .max_connections = options_.max_connections,
              .refusal =
                  [] {
                    return std::string(
                        "HTTP/1.1 503 Service Unavailable\r\n"
                        "Content-Length: 0\r\nConnection: close\r\n\r\n");
                  },
              .write_timeout_ms = options_.write_timeout_ms},
          [this](TcpConnection& conn) { Serve(conn); }) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AddHandler(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

void HttpServer::Stop() {
  // Cut, not drained: a scrape is an idempotent read the client simply
  // retries, unlike an accepted KNNQL statement.
  listener_.Stop(std::chrono::milliseconds(0));
}

void HttpServer::Serve(TcpConnection& conn) {
  std::string buffer;
  std::size_t served = 0;
  while (ServeOne(conn, &buffer)) {
    if (++served >= options_.max_keepalive_requests) break;
  }
}

bool HttpServer::ServeOne(TcpConnection& conn, std::string* buffer) {
  // Read until the request head is complete, against one wall-clock
  // deadline for the WHOLE head: a peer that trickles a byte at a time
  // gets no fresh budget per byte.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.read_timeout_ms);
  std::size_t head_len = 0;
  bool oversized = false;
  for (;;) {
    const bool complete =
        FindHeadEnd(*buffer, &head_len) != std::string::npos;
    // One limit for a head still arriving and for a complete one that
    // arrived in a single read.
    oversized = (complete ? head_len : buffer->size()) >
                options_.max_request_bytes;
    if (complete || oversized) break;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (options_.read_timeout_ms > 0 && remaining <= 0) {
      return false;  // Slow read: cut the connection, no response.
    }
    const int tick = options_.read_timeout_ms > 0
                         ? static_cast<int>(std::min<long long>(
                               remaining, 1000))
                         : 1000;
    char chunk[8 * 1024];
    const std::ptrdiff_t n = conn.Receive(chunk, sizeof(chunk), tick);
    if (n < 0) return false;  // EOF (client closed or our Stop).
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
  // Every request read this far is answered, whatever the status: the
  // one place knnq_http_requests_total counts. Before the handler runs,
  // so a /metrics body counts the scrape that renders it.
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (oversized) {
    WriteResponse(conn, HttpResponse{.status = 431, .body = ""},
                  /*keep_alive=*/false, /*head_only=*/false);
    return false;
  }
  bool keep_alive = false;
  bool head_only = false;
  const HttpResponse response =
      Route(std::string_view(*buffer).substr(0, head_len), &keep_alive,
            &head_only);
  buffer->erase(0, head_len);
  return WriteResponse(conn, response, keep_alive, head_only) &&
         keep_alive;
}

HttpResponse HttpServer::Route(std::string_view head, bool* keep_alive,
                               bool* head_only) const {
  // Request line: METHOD SP TARGET SP HTTP/x.y
  const std::size_t line_end = head.find('\n');
  std::string_view line = head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return HttpResponse{.status = 400, .body = "bad request\n"};
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return HttpResponse{.status = 505, .body = ""};
  }

  // Headers: only Connection and Content-Length matter to this plane.
  bool keep = version == "HTTP/1.1";
  bool has_body = false;
  std::size_t pos = line_end + 1;
  while (pos < head.size()) {
    std::size_t eol = head.find('\n', pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view header = head.substr(pos, eol - pos);
    pos = eol + 1;
    header = TrimSpaces(header);
    if (header.empty()) break;
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = TrimSpaces(header.substr(0, colon));
    const std::string_view value = TrimSpaces(header.substr(colon + 1));
    if (IEquals(name, "connection")) {
      if (IEquals(value, "close")) keep = false;
      if (IEquals(value, "keep-alive")) keep = true;
    } else if (IEquals(name, "content-length")) {
      has_body = value != "0";
    } else if (IEquals(name, "transfer-encoding")) {
      has_body = true;
    }
  }
  if (has_body) {
    // Request-line + header parse ONLY: a body would desync keep-alive
    // framing, so refuse and close instead of consuming it.
    return HttpResponse{.status = 400, .body = "request body not allowed\n"};
  }
  *keep_alive = keep;
  const bool is_head = IEquals(method, "HEAD");
  if (!IEquals(method, "GET") && !is_head) {
    return HttpResponse{.status = 405, .body = "GET only\n"};
  }
  *head_only = is_head;

  // Exact-path dispatch, query string stripped.
  if (const std::size_t q = target.find('?');
      q != std::string_view::npos) {
    target = target.substr(0, q);
  }
  const auto it = handlers_.find(std::string(target));
  return it != handlers_.end()
             ? it->second()
             : HttpResponse{.status = 404, .body = "not found\n"};
}

bool HttpServer::WriteResponse(TcpConnection& conn,
                               const HttpResponse& response,
                               bool keep_alive, bool head_only) {
  const std::string head =
      "HTTP/1.1 " + std::to_string(response.status) + " " +
      StatusText(response.status) + "\r\nContent-Type: " +
      response.content_type + "\r\nContent-Length: " +
      std::to_string(response.body.size()) + "\r\nConnection: " +
      (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
  // Head and body in one gathered write: the body (a whole /metrics
  // exposition) is not copied.
  return conn.Write(head, head_only ? std::string_view() : response.body) ==
         TcpConnection::WriteResult::kOk;
}

}  // namespace knnq::obs
