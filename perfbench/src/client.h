// The load generator: one thread driving a handful of loopback TCP
// connections to `knnq_cli serve` from a single poll loop, open loop
// (requests sent on a schedule, whatever the server does) or closed
// loop (each connection sends its next request when the previous one
// is answered). Every response is checked for its id and status.

#ifndef PERFBENCH_SRC_CLIENT_H_
#define PERFBENCH_SRC_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/common/status.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

/// Hash of a query record's result, ignoring its `id` and `stats`
/// fields: what must agree between the server and an in-process run.
std::uint64_t ResultHash(std::string_view record);

/// One sent job as the generator saw it. Times are NowNs() values.
struct JobRecord {
  Job job;
  std::uint32_t conn = 0;
  std::int64_t scheduled = 0;  // Open loop: due time; closed: send time.
  std::int64_t ready = 0;      // Closed loop: when the connection freed.
  std::int64_t sent = 0;
  std::int64_t done = -1;  // Last response of the job; -1 = unanswered.
  std::uint32_t pending = 0;
  bool error = false;  // Some statement answered status "error"
                       // (a refusal, code Unavailable, included).
  std::uint64_t hash = 0;  // ResultHash of a single-statement read.
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens `connections` non-blocking loopback connections.
  knnq::Status Connect(int port, std::size_t connections);

  /// Queues `text` (a job's statements) on `conn` and sends what the
  /// socket takes. Returns the job's index in jobs().
  std::uint32_t Send(std::uint32_t conn, const Job& job,
                     const std::string& text, std::int64_t scheduled,
                     std::int64_t ready);

  /// Waits for socket activity until `until_ns` (absolute NowNs()),
  /// reading responses and flushing sends; calls `on_done(job)` for
  /// every job whose last response arrived. Returns early after any
  /// completion.
  void Poll(std::int64_t until_ns,
            const std::function<void(std::uint32_t)>& on_done);

  /// Runs Poll until every sent job is answered or `deadline_ns`.
  void Drain(std::int64_t deadline_ns);

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  std::size_t outstanding() const { return outstanding_; }
  /// Statements sent on `conn` and not answered yet.
  std::size_t outstanding(std::uint32_t conn) const {
    return conns_[conn].job_of_id.size() - conns_[conn].answered;
  }
  std::size_t connections() const { return conns_.size(); }
  /// Malformed or unexpected responses, and connections lost with
  /// requests outstanding.
  std::size_t protocol_errors() const { return protocol_errors_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    /// Response id - 1 -> job index (ids count statements per
    /// connection from 1).
    std::vector<std::uint32_t> job_of_id;
    std::size_t answered = 0;
    bool closed = false;
  };
  void Flush(Conn& c);
  void ReadAll(Conn& c, const std::function<void(std::uint32_t)>& on_done);
  void OnLine(Conn& c, std::string_view line,
              const std::function<void(std::uint32_t)>& on_done);

  std::vector<Conn> conns_;
  std::vector<JobRecord> jobs_;
  std::size_t outstanding_ = 0;
  std::size_t protocol_errors_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLIENT_H_
