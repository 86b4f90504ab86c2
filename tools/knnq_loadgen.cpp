// knnq_loadgen: multi-threaded closed-loop client for `knnq_cli
// serve`. Replays .knnql workloads over N concurrent connections and
// reports throughput plus latency percentiles; every response is
// checked (id ordering, status), so a clean run is also a protocol
// conformance pass.
//
// Usage:
//   knnq_loadgen --port P [--host H] [--clients N] [--repeat R]
//                --file WORKLOAD.knnql [--file ...] [--json]
//                [--kill-after-ops N --kill-pid PID]
//   knnq_loadgen --port P --shutdown      # graceful server stop
//   knnq_loadgen --port P --stats         # print the STATS record
//   knnq_loadgen --port P --metrics       # print Prometheus text
//   knnq_loadgen --scrape-http HOST:PORT[/metrics]   # scrape over HTTP
//
// --stats prints the STATS record as one JSON line, `{"id": 1,
// "status": "ok", "metrics": {...}}`: every registered metric keyed by
// its METRICS name, in the same order (counters as integers, gauges as
// numbers, histograms as count/mean/p50/p95/p99 summaries in ms), e.g.
// `knnq_loadgen --port P --stats | jq '.metrics'`.
//
// --kill-after-ops N SIGKILLs --kill-pid PID once N statements have
// been sent: the crash half of a recovery drill. Disconnects after the
// kill are expected (reported separately) and do not fail the run, but
// a drill whose kill never fires exits nonzero.
//
// --metrics sends the METRICS verb and unwraps the JSON envelope,
// printing the raw Prometheus exposition text — pipe it into
// tools/check_prometheus.py (the CI lint) or a scrape debugger.
//
// --scrape-http fetches the observability plane's GET /metrics (the
// path defaults to /metrics when omitted), prints the body, and exits
// nonzero unless the response is a 200 carrying well-formed Prometheus
// exposition text — a dependency-free scrape probe for CI and cron.
//
// Exit code 0 only when every response arrived, in order, with
// status ok - the CI smoke step's zero-error assertion.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/data/dataset_io.h"
#include "src/server/loadgen.h"
#include "src/server/wire.h"

namespace {

using namespace knnq;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct Flags {
  std::string host = "127.0.0.1";
  std::size_t port = 0;
  std::size_t clients = 4;
  std::size_t repeat = 1;
  std::size_t kill_after_ops = 0;
  std::size_t kill_pid = 0;
  std::vector<std::string> files;
  bool json = false;
  bool shutdown = false;
  bool stats = false;
  bool metrics = false;
  /// --scrape-http HOST:PORT[/path]; empty when not scraping.
  std::string scrape_http;
};

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      flags.json = true;
      continue;
    }
    if (flag == "--shutdown") {
      flags.shutdown = true;
      continue;
    }
    if (flag == "--stats") {
      flags.stats = true;
      continue;
    }
    if (flag == "--metrics") {
      flags.metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--host") {
      flags.host = value;
    } else if (flag == "--port") {
      flags.port = static_cast<std::size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (flag == "--clients") {
      flags.clients = static_cast<std::size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (flag == "--repeat") {
      flags.repeat = static_cast<std::size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (flag == "--kill-after-ops") {
      flags.kill_after_ops = static_cast<std::size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (flag == "--kill-pid") {
      flags.kill_pid = static_cast<std::size_t>(std::strtoull(
          value.c_str(), nullptr, 10));
    } else if (flag == "--file") {
      flags.files.push_back(value);
    } else if (flag == "--scrape-http") {
      flags.scrape_http = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!flags.scrape_http.empty()) return flags;  // Needs no --port.
  if (flags.port == 0 || flags.port > 65535) {
    return Status::InvalidArgument("--port (1-65535) is required");
  }
  return flags;
}

/// Splits "HOST:PORT[/path]" (path defaults to /metrics).
Status ParseScrapeTarget(const std::string& target, std::string* host,
                         std::uint16_t* port, std::string* path) {
  const std::size_t slash = target.find('/');
  const std::string hostport =
      slash == std::string::npos ? target : target.substr(0, slash);
  *path = slash == std::string::npos ? "/metrics" : target.substr(slash);
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= hostport.size()) {
    return Status::InvalidArgument(
        "--scrape-http expects HOST:PORT[/path], got: " + target);
  }
  *host = hostport.substr(0, colon);
  char* end = nullptr;
  const unsigned long parsed =
      std::strtoul(hostport.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || parsed == 0 || parsed > 65535) {
    return Status::InvalidArgument(
        "--scrape-http port must be 1-65535, got: " + target);
  }
  *port = static_cast<std::uint16_t>(parsed);
  return Status::Ok();
}

/// Structural lint of Prometheus text exposition: every non-empty line
/// is a comment or `name[{labels}] value`, metric names are legal, and
/// at least one sample is present. Mirrors tools/check_prometheus.py
/// so the probe needs no Python.
Status ValidateExposition(const std::string& text) {
  std::size_t samples = 0;
  std::size_t begin = 0;
  std::size_t line_no = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') continue;
    // name{labels} value  |  name value
    std::size_t name_end = 0;
    while (name_end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[name_end])) ||
            line[name_end] == '_' || line[name_end] == ':')) {
      ++name_end;
    }
    if (name_end == 0 ||
        std::isdigit(static_cast<unsigned char>(line[0]))) {
      return Status::InvalidArgument(
          "exposition line " + std::to_string(line_no) +
          ": bad metric name: " + line);
    }
    std::size_t value_begin = name_end;
    if (value_begin < line.size() && line[value_begin] == '{') {
      const std::size_t close = line.find('}', value_begin);
      if (close == std::string::npos) {
        return Status::InvalidArgument(
            "exposition line " + std::to_string(line_no) +
            ": unterminated label set: " + line);
      }
      value_begin = close + 1;
    }
    if (value_begin >= line.size() || line[value_begin] != ' ') {
      return Status::InvalidArgument(
          "exposition line " + std::to_string(line_no) +
          ": missing sample value: " + line);
    }
    char* end_ptr = nullptr;
    std::strtod(line.c_str() + value_begin + 1, &end_ptr);
    if (end_ptr == line.c_str() + value_begin + 1) {
      return Status::InvalidArgument(
          "exposition line " + std::to_string(line_no) +
          ": non-numeric sample value: " + line);
    }
    ++samples;
  }
  if (samples == 0) {
    return Status::InvalidArgument("exposition carried no samples");
  }
  return Status::Ok();
}

void PrintReport(const server::LoadgenReport& report, bool json) {
  if (json) {
    std::printf(
        "{\"clients\": %zu, \"requests\": %zu, \"ok_responses\": %zu, "
        "\"error_responses\": %zu, \"protocol_errors\": %zu, "
        "\"post_kill_disconnects\": %zu, \"killed\": %s, "
        "\"wall_seconds\": %.6f, \"qps\": %.2f, \"mean_ms\": %.3f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"max_ms\": %.3f}\n",
        report.clients, report.requests, report.ok_responses,
        report.error_responses, report.protocol_errors,
        report.post_kill_disconnects, report.killed ? "true" : "false",
        report.wall_seconds, report.qps(), report.mean_ms, report.p50_ms,
        report.p95_ms, report.p99_ms, report.max_ms);
    return;
  }
  std::printf("%zu clients, %zu requests in %.2fs: %.1f req/s\n",
              report.clients, report.requests, report.wall_seconds,
              report.qps());
  std::printf("latency ms: mean %.3f, p50 %.3f, p95 %.3f, p99 %.3f, "
              "max %.3f\n",
              report.mean_ms, report.p50_ms, report.p95_ms, report.p99_ms,
              report.max_ms);
  if (report.killed) {
    std::printf("kill fired; %zu clients disconnected post-kill\n",
                report.post_kill_disconnects);
  }
  if (!report.clean()) {
    std::printf("FAILURES: %zu error responses, %zu protocol errors\n",
                report.error_responses, report.protocol_errors);
  }
}

/// Pulls the "prometheus" field out of a METRICS response record and
/// undoes the server's JsonEscape (the escaper only emits \", \\, the
/// short escapes and \u00XX control forms). Returns false when the
/// record carries no such field (e.g. an error record).
bool ExtractPrometheus(const std::string& record, std::string* out) {
  const std::string key = "\"prometheus\": \"";
  const std::size_t begin = record.find(key);
  if (begin == std::string::npos) return false;
  std::string text;
  std::size_t i = begin + key.size();
  while (i < record.size() && record[i] != '"') {
    const char c = record[i];
    if (c == '\\' && i + 1 < record.size()) {
      const char escaped = record[++i];
      switch (escaped) {
        case 'n': text.push_back('\n'); break;
        case 't': text.push_back('\t'); break;
        case 'r': text.push_back('\r'); break;
        case 'b': text.push_back('\b'); break;
        case 'f': text.push_back('\f'); break;
        case 'u': {
          if (i + 4 >= record.size()) return false;
          text.push_back(static_cast<char>(
              std::strtoul(record.substr(i + 1, 4).c_str(), nullptr, 16)));
          i += 4;
          break;
        }
        default: text.push_back(escaped); break;
      }
    } else {
      text.push_back(c);
    }
    ++i;
  }
  if (i >= record.size()) return false;  // Unterminated string.
  *out = std::move(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr,
                 "usage: knnq_loadgen --port P [--host H] [--clients N] "
                 "[--repeat R] --file W.knnql [--file ...] [--json] | "
                 "--shutdown | --stats | --metrics | "
                 "--scrape-http HOST:PORT[/metrics]\n");
    return Fail(flags.status());
  }
  const auto port = static_cast<std::uint16_t>(flags->port);

  if (!flags->scrape_http.empty()) {
    std::string host, path;
    std::uint16_t http_port = 0;
    if (const Status s =
            ParseScrapeTarget(flags->scrape_http, &host, &http_port, &path);
        !s.ok()) {
      return Fail(s);
    }
    const auto response = server::HttpGet(host, http_port, path);
    if (!response.ok()) return Fail(response.status());
    std::fputs(response->body.c_str(), stdout);
    if (response->status != 200) {
      return Fail(Status::Unavailable(
          "scrape answered HTTP " + std::to_string(response->status)));
    }
    if (const Status s = ValidateExposition(response->body); !s.ok()) {
      return Fail(s);
    }
    return 0;
  }

  if (flags->shutdown || flags->stats || flags->metrics) {
    const char* verb = flags->shutdown ? "SHUTDOWN"
                       : flags->stats  ? "STATS"
                                       : "METRICS";
    const auto response = server::SendAdminVerb(flags->host, port, verb);
    if (!response.ok()) return Fail(response.status());
    if (flags->metrics) {
      std::string text;
      if (!ExtractPrometheus(*response, &text)) {
        return Fail(Status::Internal(
            "METRICS response carried no prometheus field: " + *response));
      }
      std::fputs(text.c_str(), stdout);
      return 0;
    }
    std::printf("%s\n", response->c_str());
    // An error record (e.g. SHUTDOWN refused because the server runs
    // without --allow-remote-shutdown) must fail the exit code, or a
    // script's `--shutdown && wait $PID` hangs with no visible cause.
    return response->find("\"status\": \"error\"") == std::string::npos
               ? 0
               : 1;
  }

  if (flags->files.empty()) {
    return Fail(Status::InvalidArgument(
        "pass at least one --file WORKLOAD.knnql"));
  }
  std::vector<std::string> statements;
  for (const std::string& path : flags->files) {
    auto text = ReadTextFile(path);
    if (!text.ok()) return Fail(text.status());
    auto split = server::SplitStatements(*text);
    if (!split.ok()) return Fail(split.status());
    statements.insert(statements.end(), split->begin(), split->end());
  }

  server::LoadgenOptions options;
  options.host = flags->host;
  options.port = port;
  options.clients = flags->clients;
  options.repeat = flags->repeat;
  options.kill_after_ops = flags->kill_after_ops;
  options.kill_pid = static_cast<int>(flags->kill_pid);
  const auto report = server::RunLoadgen(options, statements);
  if (!report.ok()) return Fail(report.status());
  PrintReport(*report, flags->json);
  // A crash drill that never fired its kill is a failed drill.
  if (options.kill_after_ops > 0 && !report->killed) return 1;
  return report->clean() ? 0 : 1;
}
