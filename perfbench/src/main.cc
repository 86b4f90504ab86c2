// perfbench: one workload run against a Release `knnq_cli serve` child.
//
//   perfbench --workload point_lookup|join_analytics|moving_objects
//             --seed N --seconds S --trace 0|1 --threads T --cache-mb M
//             --knnq-cli PATH --work-dir DIR [--results FILE]
//             [--spans FILE]
//
// Generates the catalog and statements from --seed, times the server's
// set-up, drives it over loopback TCP for --seconds (tracing off), then
// replays the same statements in process: untraced as the reference
// the served results must match, and with --trace 1 traced, for the
// per-layer numbers. Prints every metric by name with its unit and
// sample count, then one JSON line: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer ones. Exits 1 on any wrong,
// refused, failed or missing result, a durability or WAL-sync-count
// mismatch, or spans that do not tile their request.
//
// --threads and --cache-mb are the server's configuration; the load
// shape below is fixed.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/client.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/server_process.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"
#include "src/index/distance_kernel.h"
#include "src/server/loadgen.h"

namespace perfbench {
namespace {

using knnq::Result;
using knnq::Status;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string knnq_cli;
  std::string work_dir;
  std::string results;
  std::string spans;
  std::size_t threads = 0;  // Server workers; also the closed-loop readers.
  std::size_t cache_mb = 0;
};

// The load shape (perfbench/README.md).

/// point_lookup's open-loop connections: nproc of the 4-core host.
constexpr std::size_t kOpenConnections = 4;
/// point_lookup's Poisson ladder (statements/s), its nominal step, and
/// the windowed-p99 limit of the max-rate rule.
constexpr double kLadder[] = {4000, 8000, 16000, 32000};
constexpr double kNominalQps = 8000;
constexpr double kLimitMs = 5;
/// Unmeasured warm-up before every measured phase.
constexpr double kWarmupSeconds = 1;
/// Acknowledged moves between SNAPSHOT and SIGKILL in the recovery
/// drill: the WAL length every commit replays.
constexpr std::size_t kDrillMoves = 200;
/// Server spawns timed for setup_s, which is their median: kSetupsBefore
/// before the measured phase (the last of them serves it) and
/// kSetupsAfter after the run's checks, so the samples span the run
/// and a slowdown of the host over a few seconds moves few of them.
constexpr std::size_t kSetupsBefore = 5;
constexpr std::size_t kSetupsAfter = 6;

/// Share of a request's traced time its layer spans may leave
/// unattributed (the tiling check of the traced run).
constexpr double kEpsilon = 0.05;

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Status::InvalidArgument("expected --flag value, got " + flag);
    }
    kv[flag.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const char* key, auto parse,
                        bool required = true) -> Status {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      return required ? Status::InvalidArgument(std::string("--") + key +
                                                " is required")
                      : Status::Ok();
    }
    if (!parse(it->second)) {
      return Status::InvalidArgument(std::string("bad --") + key + " " +
                                     it->second);
    }
    kv.erase(it);
    return Status::Ok();
  };
  const auto str = [](std::string* out) {
    return [out](const std::string& v) { *out = v; return !v.empty(); };
  };
  const auto num = [](auto* out) {
    return [out](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(d >= 0)) return false;
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(d);
      return true;
    };
  };
  for (const Status& s : {
           take("workload", str(&o.workload)),
           take("seed", num(&o.seed)),
           take("seconds", num(&o.seconds)),
           take("trace", [&](const std::string& v) {
             o.trace = v == "1";
             return v == "0" || v == "1";
           }),
           take("threads", num(&o.threads)),
           take("cache-mb", num(&o.cache_mb)),
           take("knnq-cli", str(&o.knnq_cli)),
           take("work-dir", str(&o.work_dir)),
           take("results", str(&o.results), false),
           take("spans", str(&o.spans), false),
       }) {
    if (!s.ok()) return s;
  }
  if (!kv.empty()) {
    return Status::InvalidArgument("unknown flag --" + kv.begin()->first);
  }
  if (o.workload != "point_lookup" && o.workload != "join_analytics" &&
      o.workload != "moving_objects") {
    return Status::InvalidArgument("unknown --workload " + o.workload);
  }
  if (o.threads == 0 || o.cache_mb == 0 || o.seconds <= 0) {
    return Status::InvalidArgument(
        "--threads, --cache-mb and --seconds must be > 0");
  }
  return o;
}

// ------------------------------------------------------------ reporting

/// One printed metric: value, unit and the samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 0;
};

std::string Number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "-1";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

struct Host {
  std::size_t nproc = 0;
  std::string cpu;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string simd;
  std::string Json(const Options& o) const {
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"cpu\": " + JsonString(cpu) +
           ", \"compiler\": " + JsonString(compiler) +
           ", \"build_type\": " + JsonString(build_type) +
           ", \"simd\": " + JsonString(simd) +
           ", \"threads\": " + std::to_string(o.threads) +
           ", \"cache_mb\": " + std::to_string(o.cache_mb) + "}";
  }
};

Host ProbeHost() {
  Host host;
  host.nproc = static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      host.cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  host.simd = knnq::SimdAvailable() ? "avx2" : "scalar";
  return host;
}

/// `knnq_server_...` value from a METRICS response line (the Prometheus
/// text, JSON-escaped: samples follow an escaped newline).
double MetricValue(const std::string& line, const std::string& name) {
  const std::string key = "\\n" + name + " ";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::atof(line.c_str() + at + key.size());
}

std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return {0, 0, 0};
  const auto q = [&](double p) { return NearestRank(v, p); };
  return {q(25), q(50), q(75)};
}

// ------------------------------------------------------------- the run

/// Requests the open loop keeps in flight per connection: three
/// quarters of the server's default per-connection limit (16,
/// `serve --max-conn-inflight`), so the server's slot release - after
/// it writes the response - never races the next send into a refusal,
/// and a host stall shows as latency rather than as refusals.
constexpr std::size_t kConnectionWindow = 12;

class Run {
 public:
  explicit Run(Options options) : o_(std::move(options)) {}
  int Main();

 private:
  Status TimeSetups(std::size_t spawns, bool serve_last);
  Status PointLookup();
  Status ClosedLoop(bool writer);
  Status RecoveryDrill();
  Status ReplayAndCheck();
  void Fail(const std::string& what, std::size_t count = 1) {
    std::printf("FAIL: %s (%zu)\n", what.c_str(), count);
    failed_ += count;
  }
  /// A run that measured something other than it claims (too few
  /// samples, untiled spans): correct=false, but no operation failed.
  void Invalid(const std::string& what) {
    std::printf("INVALID: %s\n", what.c_str());
    invalid_ = true;
  }
  void Put(std::map<std::string, Metric>& into, const std::string& name,
           double value, const std::string& unit, std::size_t n) {
    into[name] = Metric{value, unit, n};
  }
  std::vector<std::string> ServerArgv(const std::string& data_dir) const;

  Options o_;
  Host host_;
  std::string run_dir_;
  std::map<std::string, std::string> files_;
  std::map<std::string, knnq::PointSet> points_;
  StatementPool pool_;
  ServerProcess server_;
  std::string data_dir_;
  std::vector<double> setup_s_;
  LoadClient client_;
  std::unique_ptr<MovingObjects> moving_;

  // Served-run bookkeeping.
  std::vector<std::uint32_t> counted_;  // Jobs in the counted phases.
  std::vector<std::uint32_t> nominal_;  // point_lookup nominal step.
  std::vector<std::uint32_t> drill_;    // Recovery-drill moves.
  std::vector<StepVerdict> steps_;
  /// Server CPU seconds over the measured phase (point_lookup: the
  /// nominal step).
  double cpu_seconds_ = 0;
  std::int64_t window_start_ = 0, window_end_ = 0;
  std::string metrics_line_;
  double rss_mib_ = 0;
  double recovery_s_ = 0;
  std::size_t acked_moves_ = 0;

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool invalid_ = false;
  /// Gated end-to-end metrics, per-layer metrics (traced replay), and
  /// served-run metrics reported beside the per-layer ones: those one
  /// workload has, and the p99 (see perfbench/README.md).
  std::map<std::string, Metric> e2e_, layer_, served_;
};

std::vector<std::string> Run::ServerArgv(const std::string& data_dir) const {
  std::vector<std::string> argv = {
      o_.knnq_cli, "serve", "--port", "0", "--threads",
      std::to_string(o_.threads), "--cache-mb", std::to_string(o_.cache_mb)};
  for (const auto& [name, path] : files_) {
    argv.push_back("--data");
    argv.push_back(name + "=" + path);
  }
  if (!data_dir.empty()) {
    argv.insert(argv.end(), {"--data-dir", data_dir, "--wal-sync", "always"});
  }
  return argv;
}

Status Run::TimeSetups(std::size_t spawns, bool serve_last) {
  // Spawns the server `spawns` times, timing each to its first PING, and
  // keeps the last as server_ when `serve_last`. A durable server gets a
  // fresh data dir each time, so every spawn pays the baseline snapshot.
  const bool durable = o_.workload == "moving_objects";
  for (std::size_t i = 0; i < spawns; ++i) {
    std::string dir;
    if (durable) {
      dir = run_dir_ + "/server-data-" + std::to_string(setup_s_.size());
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    }
    const std::string log = run_dir_ + "/server.log";
    Result<double> took = 0.0;
    if (serve_last && i + 1 == spawns) {
      took = server_.Start(ServerArgv(dir), log, 120);
      data_dir_ = dir;
    } else {
      ServerProcess probe;
      took = probe.Start(ServerArgv(dir), log, 120);
      probe.Kill();
      if (durable) std::filesystem::remove_all(dir);
    }
    if (!took.ok()) return took.status();
    setup_s_.push_back(*took);
  }
  return Status::Ok();
}

Status Run::PointLookup() {
  // Statement texts are generated before each step so the send loop
  // only copies bytes.
  std::mt19937_64 rng(o_.seed * 7919 + 11);
  std::uint64_t counter = 0;
  // The nominal step takes 40% of the measured time, the others 20%
  // each.
  std::vector<std::pair<double, double>> plan;  // (rate, seconds)
  plan.emplace_back(kLadder[0], kWarmupSeconds);  // Warm-up.
  for (double rate : kLadder) {
    plan.emplace_back(rate, o_.seconds * (rate == kNominalQps ? 0.4 : 0.2));
  }
  if (Status s = client_.Connect(server_.port(), kOpenConnections);
      !s.ok()) {
    return s;
  }
  for (std::size_t step = 0; step < plan.size(); ++step) {
    const auto [rate, seconds] = plan[step];
    const std::vector<std::int64_t> schedule =
        PoissonSchedule(rate, seconds, o_.seed * 104729 + step);
    std::vector<std::uint32_t> texts;
    texts.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      texts.push_back(pool_.Add(PointLookupStatement(rng, counter++)));
    }
    // Requests leave on schedule, except that a connection never holds
    // more than kConnectionWindow: a request due while every connection
    // is full waits here, and its latency still counts from its
    // scheduled time.
    const Result<double> cpu_start = server_.CpuSeconds();
    std::vector<std::uint32_t> jobs;
    std::deque<std::size_t> due;
    const std::int64_t t0 = NowNs() + 2'000'000;
    std::size_t next = 0;
    while (next < schedule.size() || !due.empty()) {
      const std::int64_t now = NowNs();
      while (next < schedule.size() && t0 + schedule[next] <= now) {
        due.push_back(next++);
      }
      while (!due.empty()) {
        std::uint32_t conn = 0;
        for (std::uint32_t c = 1; c < client_.connections(); ++c) {
          if (client_.outstanding(c) < client_.outstanding(conn)) conn = c;
        }
        if (client_.outstanding(conn) >= kConnectionWindow) break;
        const std::size_t i = due.front();
        due.pop_front();
        jobs.push_back(client_.Send(conn, Job{texts[i], 1, false},
                                    pool_[texts[i]], t0 + schedule[i], 0));
      }
      client_.Poll(next < schedule.size() ? t0 + schedule[next]
                                          : NowNs() + 1'000'000,
                   [](std::uint32_t) {});
    }
    client_.Drain(NowNs() + 10'000'000'000);
    const Result<double> cpu_end = server_.CpuSeconds();
    if (rate == kNominalQps && step > 0 && cpu_start.ok() && cpu_end.ok()) {
      cpu_seconds_ = *cpu_end - *cpu_start;
    }
    if (step == 0) continue;  // Warm-up: judged by nobody.
    std::vector<OpenLoopSample> samples;
    for (std::uint32_t j : jobs) {
      const JobRecord& r = client_.jobs()[j];
      samples.push_back(OpenLoopSample{r.scheduled, r.sent, r.done, r.error});
    }
    steps_.push_back(JudgeStep(rate, samples, kLimitMs));
    const StepVerdict& v = steps_.back();
    std::printf(
        "ladder %6.0f qps: achieved %.1f qps, %s, failed %zu, unanswered "
        "%zu, quarter p50 %.3f -> %.3f ms, %s\n",
        rate, v.achieved_qps, v.latency.ToString("ms").c_str(), v.failed,
        v.unanswered, v.first_quarter_p50_ms, v.last_quarter_p50_ms,
        v.meets_limit ? "meets limit" : "misses limit");
    // Steps above nominal count only against max_rate_qps.
    if (rate <= kNominalQps) {
      counted_.insert(counted_.end(), jobs.begin(), jobs.end());
    }
    if (rate == kNominalQps) nominal_ = jobs;
  }
  return Status::Ok();
}

Status Run::ClosedLoop(bool writer) {
  // One reader connection per server worker.
  const std::size_t readers = o_.threads;
  if (Status s = client_.Connect(server_.port(), readers + (writer ? 1 : 0));
      !s.ok()) {
    return s;
  }
  JoinAnalytics joins(o_.seed, &pool_);
  const auto next_job = [&](std::uint32_t conn) {
    if (conn == readers) return moving_->NextMove();
    return writer ? moving_->NextRead(conn) : joins.Next(conn);
  };
  const std::int64_t start = NowNs();
  window_start_ = start + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  window_end_ = window_start_ + static_cast<std::int64_t>(o_.seconds * 1e9);
  const auto send = [&](std::uint32_t conn, std::int64_t ready) {
    const Job job = next_job(conn);
    client_.Send(conn, job, pool_[job.statement], 0, ready);
  };
  for (std::uint32_t c = 0; c < readers + (writer ? 1 : 0); ++c) {
    send(c, NowNs());
  }
  const auto on_done = [&](std::uint32_t j) {
    const JobRecord& r = client_.jobs()[j];
    const std::int64_t now = NowNs();
    if (now < window_end_) send(r.conn, r.done);
  };
  while (NowNs() < window_start_) client_.Poll(window_start_, on_done);
  const Result<double> cpu_start = server_.CpuSeconds();
  while (NowNs() < window_end_) client_.Poll(window_end_, on_done);
  const Result<double> cpu_end = server_.CpuSeconds();
  if (cpu_start.ok() && cpu_end.ok()) cpu_seconds_ = *cpu_end - *cpu_start;
  client_.Drain(NowNs() + 60'000'000'000);
  for (std::uint32_t j = 0; j < client_.jobs().size(); ++j) {
    if (client_.jobs()[j].sent >= window_start_) counted_.push_back(j);
  }
  return Status::Ok();
}

Status Run::RecoveryDrill() {
  // SNAPSHOT, a fixed number of further acknowledged moves, SIGKILL,
  // restart on the same data dir, first PING: both commits replay the
  // same WAL length.
  const auto port = static_cast<std::uint16_t>(server_.port());
  auto snap = knnq::server::SendAdminVerb("127.0.0.1", port, "SNAPSHOT");
  if (!snap.ok() || snap->find("\"status\": \"ok\"") == std::string::npos) {
    Fail("SNAPSHOT before the drill failed");
    return Status::Ok();
  }
  const auto writer = static_cast<std::uint32_t>(o_.threads);
  for (std::size_t i = 0; i < kDrillMoves; ++i) {
    const Job move = moving_->NextMove();
    const std::uint32_t j = client_.Send(writer, move, pool_[move.statement],
                                         0, NowNs());
    drill_.push_back(j);
    client_.Drain(NowNs() + 30'000'000'000);
    if (client_.jobs()[j].done < 0) break;
  }
  auto metrics = knnq::server::SendAdminVerb("127.0.0.1", port, "METRICS");
  if (!metrics.ok()) return metrics.status();
  std::size_t acked_statements = 0;
  for (const JobRecord& r : client_.jobs()) {
    if (r.job.write && r.done >= 0 && !r.error) {
      ++acked_moves_;
      acked_statements += r.job.statements;
    }
  }
  const double syncs = MetricValue(*metrics, "knnq_server_wal_syncs_total");
  std::printf("drill: %zu acknowledged moves (%zu DML statements), "
              "knnq_server_wal_syncs_total %.0f\n",
              acked_moves_, acked_statements, syncs);
  if (syncs < static_cast<double>(acked_statements)) {
    Fail("fewer WAL syncs than acknowledged DML under --wal-sync always");
  }
  metrics_line_ = *metrics;

  const std::int64_t killed = NowNs();
  server_.Kill();
  ServerProcess restarted;
  auto up = restarted.Start(ServerArgv(data_dir_), run_dir_ + "/restart.log",
                            120);
  if (!up.ok()) return up.status();
  recovery_s_ = static_cast<double>(NowNs() - killed) / 1e9;

  // Check queries against a reference that applied exactly the
  // acknowledged moves, in order.
  const std::vector<std::string> checks = moving_->CheckStatements();
  LoadClient check;
  if (Status s = check.Connect(restarted.port(), 1); !s.ok()) return s;
  StatementPool check_pool;
  for (const std::string& text : checks) {
    const std::uint32_t t = check_pool.Add(text);
    check.Send(0, Job{t, 1, false}, check_pool[t], 0, NowNs());
    check.Drain(NowNs() + 30'000'000'000);
  }
  std::vector<std::string> moves;
  for (const JobRecord& r : client_.jobs()) {
    if (r.job.write && r.done >= 0 && !r.error) {
      moves.push_back(pool_[r.job.statement]);
    }
  }
  auto expected = ReferenceHashes(files_, moves, checks);
  if (!expected.ok()) return expected.status();
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const JobRecord& r = check.jobs()[i];
    if (r.done < 0 || r.error || r.hash != (*expected)[i]) ++wrong;
  }
  attempted_ += checks.size();
  if (wrong > 0) Fail("post-restart results differ from the reference", wrong);
  if (check.protocol_errors() > 0) {
    Fail("protocol errors after restart", check.protocol_errors());
  }
  if (!restarted.Stop(30)) Fail("restarted server did not shut down cleanly");
  return Status::Ok();
}

/// Per-caller job streams in send order (connection c -> caller c).
std::vector<std::vector<std::uint32_t>> Streams(
    const std::vector<JobRecord>& jobs, std::size_t callers,
    const std::vector<std::uint32_t>& exclude) {
  std::set<std::uint32_t> skip(exclude.begin(), exclude.end());
  std::vector<std::vector<std::uint32_t>> streams(callers);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    if (!skip.contains(j) && jobs[j].conn < callers) {
      streams[jobs[j].conn].push_back(j);
    }
  }
  return streams;
}

Status Run::ReplayAndCheck() {
  const std::vector<JobRecord>& jobs = client_.jobs();
  const bool moving = o_.workload == "moving_objects";
  ReplayConfig config;
  config.files = files_;
  config.threads = o_.threads;
  config.cache_mb = o_.cache_mb;
  // A moving_objects replay writes too: callers include the writer.
  const std::size_t callers = client_.connections();
  std::vector<std::vector<std::uint32_t>> streams =
      Streams(jobs, callers, drill_);

  std::vector<std::vector<std::uint32_t>> reference_streams = streams;
  if (!o_.trace && o_.workload == "join_analytics") {
    // Results are deterministic per statement: replay each distinct
    // statement once.
    std::set<std::uint32_t> seen;
    reference_streams.assign(callers, {});
    std::size_t next = 0;
    for (std::uint32_t j = 0; j < jobs.size(); ++j) {
      if (seen.insert(jobs[j].job.statement).second) {
        reference_streams[next++ % callers].push_back(j);
      }
    }
  }
  ReplayResult untraced;
  if (o_.trace || !moving) {
    if (moving) config.durable_dir = run_dir_ + "/replay-untraced";
    auto replayed = Replay(config, pool_, jobs, reference_streams, {});
    if (!replayed.ok()) return replayed.status();
    untraced = std::move(*replayed);
    if (untraced.errors > 0) Fail("in-process replay errors", untraced.errors);
  }
  if (!moving) {
    // Read-only workloads: every answered statement must equal the
    // in-process result, ignoring stats.
    std::size_t wrong = 0, compared = 0;
    std::map<std::uint32_t, std::uint64_t> expected;
    for (const StatementRun& run : untraced.statements) {
      expected[jobs[run.job].job.statement] = run.hash;
    }
    for (const JobRecord& r : jobs) {
      if (r.done < 0 || r.error) continue;
      const auto it = expected.find(r.job.statement);
      if (it == expected.end()) continue;
      ++compared;
      if (it->second != r.hash) ++wrong;
    }
    std::printf("results: %zu served responses compared with the in-process "
                "replay, %zu differ\n", compared, wrong);
    if (wrong > 0) Fail("served results differ from the in-process replay", wrong);
  }
  if (!o_.trace) return Status::Ok();

  if (moving) config.durable_dir = run_dir_ + "/replay-traced";
  config.traced = true;
  auto traced = Replay(config, pool_, jobs, streams, drill_);
  if (!traced.ok()) return traced.status();
  const ReplayResult& t = *traced;
  if (t.errors > 0) Fail("traced replay errors", t.errors);
  if (moving) std::filesystem::remove_all(run_dir_ + "/replay-traced");
  if (moving) std::filesystem::remove_all(run_dir_ + "/replay-untraced");

  // Self times and tiling: the layer spans of every request must cover
  // it to within epsilon (or 20 us for the cheapest statements).
  const std::vector<std::int64_t> self = SelfTimes(t.spans);
  std::vector<std::vector<std::uint32_t>> children(t.spans.size());
  for (std::uint32_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].parent != Span::kNoParent) {
      children[t.spans[i].parent].push_back(i);
    }
  }
  std::size_t untiled = 0;
  double worst_share = 0, unattributed = 0, total = 0;
  std::map<std::uint32_t, std::vector<double>> by_name;  // Durations, us.
  std::vector<double> dispatch_us, commit_us, overhead_ms;
  const auto dur = [&](std::uint32_t s) {
    return static_cast<double>(t.spans[s].end - t.spans[s].start);
  };
  std::set<std::uint32_t> nominal(nominal_.begin(), nominal_.end());
  std::set<std::uint32_t> counted(counted_.begin(), counted_.end());
  for (const StatementRun& run : t.statements) {
    const std::uint32_t root = run.root_span;
    const double d = dur(root);
    // Sum of every self time in the request's tree equals the root
    // when the layer spans neither overlap nor escape it.
    double tree_self = static_cast<double>(self[root]);
    double commits = 0;
    double run_ns = -1;
    for (std::uint32_t c : children[root]) {
      tree_self += static_cast<double>(self[c]);
      by_name[t.spans[c].name].push_back(dur(c) / 1e3);
      if (t.spans[c].name == kRun) run_ns = dur(c);
      for (std::uint32_t g : children[c]) {
        tree_self += static_cast<double>(self[g]);
        commits += dur(g);
      }
    }
    if (t.spans[root].name == kRequest && !run.query) {
      commit_us.push_back(commits / 1e3);
    }
    const double gap = static_cast<double>(self[root]);
    const double slack = std::max(kEpsilon * d, 20'000.0);
    if (gap > slack || std::abs(tree_self - d) > slack) ++untiled;
    worst_share = std::max(worst_share, d > 0 ? gap / d : 0);
    unattributed += gap;
    total += d;
    if (run.query && run_ns >= 0) {
      dispatch_us.push_back((run_ns - run.stats.wall_seconds * 1e9) / 1e3);
    }
    const JobRecord& served = jobs[run.job];
    const bool in_window = o_.workload == "point_lookup"
                               ? nominal.contains(run.job)
                               : counted.contains(run.job);
    if (run.query && in_window && served.done >= 0 && !served.error) {
      overhead_ms.push_back(
          static_cast<double>(served.done - served.sent - d) / 1e6);
    }
  }
  std::printf("tiling: %zu requests, unattributed %.3f%% of request time, "
              "worst request %.2f%%, %zu outside epsilon %.0f%% (or 20 us)\n",
              t.statements.size(), total > 0 ? 100 * unattributed / total : 0,
              100 * worst_share, untiled, 100 * kEpsilon);
  // A request whose thread was descheduled between two layer calls
  // shows a gap no layer owns; the host does that to a few requests.
  if (unattributed > kEpsilon * total ||
      static_cast<double>(untiled) > 0.01 * static_cast<double>(t.statements.size())) {
    Invalid("layer spans do not tile their requests");
  }

  // Per-layer metrics.
  const auto put_summary = [&](const std::string& name,
                               const std::vector<double>& v,
                               const std::string& unit, double scale,
                               bool p99) {
    const Summary s = Summarize(v);
    Put(layer_, name + ".p50", s.p50 * scale, unit, s.n);
    if (p99) Put(layer_, name + ".p99", s.p99 * scale, unit, s.n);
  };
  put_summary("server.overhead_ms", overhead_ms, "ms", 1, true);
  put_summary("server.render_us", by_name[kRender], "us", 1, true);
  put_summary("lang.parse_us", by_name[kParse], "us", 1, false);
  put_summary("lang.bind_us", by_name[kBind], "us", 1, false);
  put_summary("engine.run_ms", by_name[kRun], "ms", 1e-3, true);
  put_summary("engine.dml_ms", by_name[kDml], "ms", 1e-3, true);
  put_summary("engine.dispatch_us", dispatch_us, "us", 1, false);
  put_summary("durability.commit_us", commit_us, "us", 1, true);
  std::vector<double> exec_ms, response_kb;
  std::map<knnq::Algorithm, std::size_t> algorithms;
  knnq::ExecStats sum;
  std::size_t queries = 0;
  for (const StatementRun& run : t.statements) {
    if (!run.query) continue;
    ++queries;
    exec_ms.push_back(run.stats.wall_seconds * 1e3);
    response_kb.push_back(static_cast<double>(run.response_bytes) / 1024);
    ++algorithms[run.algorithm];
    sum.Merge(run.stats);
  }
  put_summary("engine.exec_ms", exec_ms, "ms", 1, true);
  Put(layer_, "server.response_kb.p50", Summarize(response_kb).p50, "KiB",
      response_kb.size());
  const std::pair<knnq::Algorithm, const char*> kAlgorithms[] = {
      {knnq::Algorithm::kTwoSelectsOptimized, "TwoSelectsOptimized"},
      {knnq::Algorithm::kSelectInnerJoinCounting, "SelectInnerJoinCounting"},
      {knnq::Algorithm::kSelectInnerJoinBlockMarking,
       "SelectInnerJoinBlockMarking"},
      {knnq::Algorithm::kSelectOuterJoinPushed, "SelectOuterJoinPushed"},
      {knnq::Algorithm::kUnchainedNaive, "UnchainedNaive"},
      {knnq::Algorithm::kUnchainedBlockMarking, "UnchainedBlockMarking"},
      {knnq::Algorithm::kChainedNestedJoin, "ChainedNestedJoin"},
      {knnq::Algorithm::kRangeInnerJoinCounting, "RangeInnerJoinCounting"},
      {knnq::Algorithm::kRangeInnerJoinBlockMarking,
       "RangeInnerJoinBlockMarking"},
  };
  for (const auto& [algorithm, name] : kAlgorithms) {
    Put(layer_, std::string("planner.algorithm.") + name,
        queries == 0 ? 0
                     : static_cast<double>(algorithms[algorithm]) /
                           static_cast<double>(queries),
        "share", queries);
  }
  const double q = std::max<double>(static_cast<double>(queries), 1);
  Put(layer_, "core.neighborhoods_per_stmt",
      static_cast<double>(sum.neighborhoods_computed) / q, "count", queries);
  Put(layer_, "core.points_compared_per_stmt",
      static_cast<double>(sum.points_compared) / q, "count", queries);
  Put(layer_, "core.pruned_per_stmt",
      static_cast<double>(sum.candidates_pruned) / q, "count", queries);
  Put(layer_, "index.blocks_scanned_per_stmt",
      static_cast<double>(sum.blocks_scanned) / q, "count", queries);
  const double blocks =
      static_cast<double>(sum.blocks_scanned + sum.blocks_skipped);
  Put(layer_, "index.skip_rate",
      blocks > 0 ? static_cast<double>(sum.blocks_skipped) / blocks : 0,
      "ratio", queries);
  for (const auto& [name, ms] : t.build_ms) {
    Put(layer_, "index.build_ms." + name, ms, "ms", 1);
  }
  Put(layer_, "cache.hit_rate", t.cache.hit_rate(), "ratio",
      t.cache.hits + t.cache.misses);
  Put(layer_, "cache.evictions", static_cast<double>(t.cache.evictions),
      "count", 1);
  Put(layer_, "cache.invalidated", static_cast<double>(t.cache.invalidated),
      "count", 1);
  Put(layer_, "cache.bytes", static_cast<double>(t.cache.bytes), "bytes", 1);
  Put(layer_, "durability.recover_s", t.recover_seconds, "s", moving ? 1 : 0);
  Put(layer_, "durability.replayed_records",
      static_cast<double>(t.replayed_records), "count", moving ? 1 : 0);
  Put(layer_, "obs.trace_overhead",
      untraced.wall_seconds > 0 ? t.wall_seconds / untraced.wall_seconds - 1
                                : 0,
      "ratio", 2);
  std::printf("replay: untraced %.3f s, traced %.3f s, %zu statements on %zu "
              "callers\n",
              untraced.wall_seconds, t.wall_seconds, t.statements.size(),
              callers);

  if (!o_.spans.empty()) {
    // Spans stay in memory during the run and are written out now.
    std::ofstream out(o_.spans);
    out << "request\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      out << s.request << '\t' << SpanNameText(s.name) << '\t'
          << (s.parent == Span::kNoParent ? -1 : static_cast<long>(s.parent))
          << '\t' << s.start << '\t' << s.end << '\t' << self[i] << '\n';
    }
  }
  return Status::Ok();
}

int Run::Main() {
  host_ = ProbeHost();
  run_dir_ = o_.work_dir + "/" + o_.workload;
  std::filesystem::remove_all(run_dir_);
  std::filesystem::create_directories(run_dir_);
  if (o_.threads + 1 > host_.nproc) {
    std::printf("warning: --threads %zu leaves the load generator no core "
                "of %zu\n", o_.threads, host_.nproc);
  }
  std::printf("host: %s threads=%zu cache_mb=%zu\n",
              host_.Json(o_).c_str(), o_.threads, o_.cache_mb);

  auto files = WriteCatalog(o_.seed, run_dir_, &points_);
  if (!files.ok()) {
    std::fprintf(stderr, "%s\n", files.status().ToString().c_str());
    return 2;
  }
  files_ = *files;
  for (const RelationSpec& spec : kCatalog) {
    std::printf("relation %s: %s, %zu points\n", spec.name, spec.kind,
                points_[spec.name].size());
  }
  const bool moving = o_.workload == "moving_objects";
  if (moving) {
    moving_ = std::make_unique<MovingObjects>(o_.seed, points_["vehicles"],
                                              &pool_);
  }

  Status status = TimeSetups(kSetupsBefore, true);
  if (status.ok()) {
    if (o_.workload == "point_lookup") {
      status = PointLookup();
    } else {
      status = ClosedLoop(moving);
    }
  }
  if (status.ok()) {
    auto rss = server_.PeakRssMib();
    rss_mib_ = rss.ok() ? *rss : 0;
    if (moving) {
      status = RecoveryDrill();
    } else {
      auto metrics = knnq::server::SendAdminVerb(
          "127.0.0.1", static_cast<std::uint16_t>(server_.port()), "METRICS");
      if (metrics.ok()) metrics_line_ = *metrics;
      status = metrics.status();
    }
  }
  if (status.ok() && server_.pid() > 0 && !server_.Stop(30)) {
    Fail("server did not shut down cleanly");
  }
  server_.Kill();
  if (status.ok()) status = ReplayAndCheck();
  if (status.ok()) status = TimeSetups(kSetupsAfter, false);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }

  // ---------------------------------------------- end-to-end metrics
  const std::vector<JobRecord>& jobs = client_.jobs();
  std::vector<double> read_ms, write_ms, lag_ms;
  std::vector<Completion> read_completions;
  std::size_t moves_done = 0;
  const std::set<std::uint32_t> latency_jobs =
      o_.workload == "point_lookup"
          ? std::set<std::uint32_t>(nominal_.begin(), nominal_.end())
          : std::set<std::uint32_t>(counted_.begin(), counted_.end());
  for (std::uint32_t j : counted_) {
    const JobRecord& r = jobs[j];
    attempted_ += r.job.statements;
    if (r.done < 0 || r.error) {
      ++failed_;
      continue;
    }
    if (!latency_jobs.contains(j)) continue;
    const bool in_window = r.done <= window_end_;
    if (r.job.write) {
      write_ms.push_back(static_cast<double>(r.done - r.sent) / 1e6);
      moves_done += in_window;
    } else {
      // Open loop: from the scheduled send; closed loop: from the send.
      const std::int64_t from = r.scheduled > 0 ? r.scheduled : r.sent;
      read_ms.push_back(static_cast<double>(r.done - from) / 1e6);
      read_completions.push_back({from, r.done, read_ms.back()});
    }
  }
  for (const JobRecord& r : jobs) {
    lag_ms.push_back(static_cast<double>(
                         r.sent - (r.scheduled > 0 ? r.scheduled : r.ready)) /
                     1e6);
  }
  if (client_.protocol_errors() > 0) {
    Fail("protocol errors", client_.protocol_errors());
  }
  if (failed_ > 0 && o_.workload == "point_lookup") {
    std::printf("FAIL: failed or unanswered requests at or below the nominal "
                "rate\n");
  }
  const std::vector<double> setup_q = Quartiles(setup_s_);
  std::printf("setup: %zu spawns, quartiles %.4f / %.4f / %.4f s\n",
              setup_s_.size(), setup_q[0], setup_q[1], setup_q[2]);
  const Summary reads = Summarize(read_ms);
  const Summary writes = Summarize(write_ms);
  if (reads.n < 1000) Invalid("query_p99_ms needs at least 1000 samples");
  // Latency and rate are medians over five slices of the measured
  // phase (point_lookup: its nominal step), so a slowdown of the shared
  // host that covers less than half the phase moves them little. They
  // are reported, not gated: a slowdown covering a whole run still
  // moves them (see perfbench/README.md). The server's CPU per
  // statement is the gated cost.
  std::int64_t from = window_start_, to = window_end_;
  if (o_.workload == "point_lookup" && !nominal_.empty()) {
    from = jobs[nominal_.front()].scheduled;
    to = jobs[nominal_.back()].scheduled + 1;
  }
  const SliceMedians slices = MedianOverSlices(read_completions, from, to, 5);
  Put(e2e_, "setup_s", setup_q[1], "s", setup_s_.size());
  Put(served_, "query_p50_ms", slices.p50_ms, "ms", reads.n);
  Put(served_, "query_p99_ms", reads.p99_windowed, "ms", reads.n);
  // The plain p99 keeps a tail that hits fewer than half the windows.
  Put(served_, "query_p99_all_ms", reads.p99, "ms", reads.n);
  const double max_rate = MaxRateQps(steps_);
  Put(served_, "throughput_qps", slices.per_second, "1/s", reads.n);
  Put(e2e_, "server_rss_mb", rss_mib_, "MiB", 1);
  // Statements the server executed in the phase its CPU was sampled
  // over: the counted reads (and moves) sent in it.
  std::size_t executed = 0;
  for (const Completion& c : read_completions) {
    executed += c.sent >= from && c.sent < to;
  }
  executed += 2 * moves_done;
  Put(e2e_, "server_cpu_ms_per_stmt",
      executed == 0 ? 0 : cpu_seconds_ * 1e3 / static_cast<double>(executed),
      "ms", executed);
  // Served-run numbers one workload has: printed here, and carried in
  // the traced run's JSON beside the per-layer metrics.
  Put(served_, "max_rate_qps", max_rate, "1/s", steps_.size());
  Put(served_, "write_p50_ms", writes.p50, "ms", writes.n);
  Put(served_, "write_p99_ms", writes.p99_windowed, "ms", writes.n);
  Put(served_, "write_p99_all_ms", writes.p99, "ms", writes.n);
  Put(served_, "write_ops_s",
      moving ? static_cast<double>(moves_done) / o_.seconds : 0,
      "1/s", moves_done);
  Put(served_, "recovery_s", recovery_s_, "s", moving ? 1 : 0);
  Put(served_, "error_rate",
      attempted_ == 0 ? 0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_),
      "ratio", attempted_);
  Put(served_, "loadgen.lag_ms.p99", Summarize(lag_ms).p99, "ms",
      lag_ms.size());
  Put(served_, "server.overload_rejections",
      MetricValue(metrics_line_, "knnq_server_overload_rejections_total"),
      "count", 1);
  const double moves = std::max<double>(static_cast<double>(acked_moves_), 1);
  Put(served_, "durability.wal_bytes_per_write",
      moving ? MetricValue(metrics_line_, "knnq_server_wal_bytes_total") / moves
             : 0,
      "B/move", acked_moves_);
  Put(served_, "durability.syncs_per_write",
      moving ? MetricValue(metrics_line_, "knnq_server_wal_syncs_total") / moves
             : 0,
      "count", acked_moves_);

  std::printf("query latency: %s; p90 %.4g ms, p95 %.4g ms\n",
              reads.ToString("ms").c_str(), NearestRank(read_ms, 90),
              NearestRank(read_ms, 95));
  if (moving) std::printf("write latency: %s\n", writes.ToString("ms").c_str());
  std::printf("server cache (METRICS): hits %.0f misses %.0f evictions %.0f "
              "invalidated %.0f bytes %.0f\n",
              MetricValue(metrics_line_, "knnq_cache_hits_total"),
              MetricValue(metrics_line_, "knnq_cache_misses_total"),
              MetricValue(metrics_line_, "knnq_cache_evictions_total"),
              MetricValue(metrics_line_, "knnq_cache_invalidated_total"),
              MetricValue(metrics_line_, "knnq_cache_bytes"));
  const auto print = [](const char* kind,
                        const std::map<std::string, Metric>& group) {
    for (const auto& [name, m] : group) {
      std::printf("%s %s = %s %s (n=%zu)\n", kind, name.c_str(),
                  Number(m.value).c_str(), m.unit.c_str(), m.n);
    }
  };
  print("e2e", e2e_);
  print("served", served_);
  if (o_.trace) print("layer", layer_);
  std::printf("error_rate = %s (%zu failed of %zu attempted)\n",
              Number(served_["error_rate"].value).c_str(), failed_,
              attempted_);

  const bool correct = failed_ == 0 && !invalid_;
  // --trace 1 reports the per-layer metrics and, beside them, the
  // served-run numbers that are not gated end to end.
  std::map<std::string, Metric> shown = e2e_;
  if (o_.trace) {
    shown = layer_;
    shown.insert(served_.begin(), served_.end());
  }
  std::string metrics = "{";
  for (const auto& [name, m] : shown) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  if (!o_.results.empty()) {
    // The record keeps every metric the run printed, gated or not.
    std::map<std::string, Metric> all = e2e_;
    all.insert(served_.begin(), served_.end());
    all.insert(layer_.begin(), layer_.end());
    std::string record = "{\"workload\": " + JsonString(o_.workload) +
                         ", \"seed\": " + std::to_string(o_.seed) +
                         ", \"trace\": " + (o_.trace ? "1" : "0") +
                         ", \"host\": " + host_.Json(o_) +
                         ", \"correct\": " + (correct ? "true" : "false") +
                         ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : all) {
      record += std::string(first ? "" : ", ") + JsonString(name) +
                ": {\"value\": " + Number(m.value) +
                ", \"unit\": " + JsonString(m.unit) +
                ", \"n\": " + std::to_string(m.n) + "}";
      first = false;
    }
    std::ofstream(o_.results, std::ios::app) << record << "}}\n";
  }
  std::filesystem::remove_all(run_dir_);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted_, 1),
              failed_, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Wake-ups for the open-loop schedule as close to due as the kernel
  // allows.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  auto options = perfbench::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 options.status().ToString().c_str());
    return 2;
  }
  perfbench::Run run(std::move(*options));
  return run.Main();
}
