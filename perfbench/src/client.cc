#include "perfbench/src/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace perfbench {

using knnq::Result;
using knnq::Status;

namespace {

constexpr std::uint32_t kAnswered = 0xffffffffu;

Result<int> Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal(std::string("socket: ") + strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("connect: ") + strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t ResultHash(std::string_view record) {
  std::string_view body = record;
  if (!body.empty() && body.front() == '{') body.remove_prefix(1);
  if (body.starts_with("\"id\": ")) {
    const std::size_t comma = body.find(", ");
    body.remove_prefix(comma == std::string_view::npos ? body.size()
                                                       : comma + 2);
  }
  const std::size_t stats = body.rfind(", \"stats\": ");
  if (stats != std::string_view::npos) body = body.substr(0, stats);
  return std::hash<std::string_view>{}(body);
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

Status LoadClient::Connect(int port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    auto fd = Dial(port);
    if (!fd.ok()) return fd.status();
    ::fcntl(*fd, F_SETFL, ::fcntl(*fd, F_GETFL) | O_NONBLOCK);
    conns_.emplace_back();
    conns_.back().fd = *fd;
  }
  return Status::Ok();
}

std::uint32_t LoadClient::Send(std::uint32_t conn, const Job& job,
                               const std::string& text,
                               std::int64_t scheduled, std::int64_t ready) {
  Conn& c = conns_[conn];
  const auto index = static_cast<std::uint32_t>(jobs_.size());
  JobRecord record;
  record.job = job;
  record.conn = conn;
  record.scheduled = scheduled;
  record.ready = ready;
  record.pending = job.statements;
  for (std::uint32_t s = 0; s < job.statements; ++s) {
    c.job_of_id.push_back(index);
  }
  c.out.append(text);
  c.out.push_back('\n');
  record.sent = NowNs();
  jobs_.push_back(record);
  ++outstanding_;
  Flush(c);
  return index;
}

void LoadClient::Flush(Conn& c) {
  while (!c.closed && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      c.closed = true;
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

void LoadClient::Poll(std::int64_t until_ns,
                      const std::function<void(std::uint32_t)>& on_done) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].closed ? -1 : conns_[i].fd;
    fds[i].events = POLLIN;
    if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
  }
  // Busy-poll: the generator keeps its core, so a send is never late by
  // a wake-up (an idle virtual CPU can take milliseconds to resume).
  const timespec zero{0, 0};
  int ready = 0;
  do {
    ready = ::ppoll(fds.data(), fds.size(), &zero, nullptr);
  } while (ready == 0 && NowNs() < until_ns);
  if (ready <= 0) return;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & POLLOUT) Flush(conns_[i]);
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      ReadAll(conns_[i], on_done);
    }
  }
}

void LoadClient::ReadAll(Conn& c,
                         const std::function<void(std::uint32_t)>& on_done) {
  char buf[1 << 16];
  while (!c.closed) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // The server closed the connection: whatever it still owed us
      // is lost.
      c.closed = true;
      for (std::uint32_t& job : c.job_of_id) {
        if (job != kAnswered) {
          ++protocol_errors_;
          job = kAnswered;
          ++c.answered;
        }
      }
      return;
    }
    const std::size_t scan_from = c.in.size();
    c.in.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl = c.in.find('\n', scan_from);
    while (nl != std::string::npos) {
      OnLine(c, std::string_view(c.in).substr(start, nl - start), on_done);
      start = nl + 1;
      nl = c.in.find('\n', start);
    }
    c.in.erase(0, start);
  }
}

void LoadClient::OnLine(Conn& c, std::string_view line,
                        const std::function<void(std::uint32_t)>& on_done) {
  const std::int64_t now = NowNs();
  constexpr std::string_view kIdPrefix = "{\"id\": ";
  std::uint64_t id = 0;
  std::size_t pos = kIdPrefix.size();
  if (!line.starts_with(kIdPrefix)) {
    ++protocol_errors_;
    return;
  }
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
  }
  if (id == 0 || id > c.job_of_id.size() || c.job_of_id[id - 1] == kAnswered) {
    ++protocol_errors_;
    return;
  }
  const std::uint32_t index = c.job_of_id[id - 1];
  c.job_of_id[id - 1] = kAnswered;
  ++c.answered;
  JobRecord& job = jobs_[index];
  const std::size_t status = line.find("\"status\": \"");
  if (status == std::string_view::npos) {
    ++protocol_errors_;
    job.error = true;
  } else if (line.substr(status + 11).starts_with("ok\"")) {
    if (!job.job.write) job.hash = ResultHash(line);
  } else {
    job.error = true;
  }
  if (--job.pending == 0) {
    job.done = now;
    --outstanding_;
    on_done(index);
  }
}

void LoadClient::Drain(std::int64_t deadline_ns) {
  while (outstanding_ > 0 && NowNs() < deadline_ns) {
    Poll(deadline_ns, [](std::uint32_t) {});
    bool all_closed = true;
    for (const Conn& c : conns_) all_closed = all_closed && c.closed;
    if (all_closed) break;
  }
}

}  // namespace perfbench
