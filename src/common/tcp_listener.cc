#include "src/common/tcp_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace knnq {

TcpConnection::~TcpConnection() { ::close(fd_); }

std::ptrdiff_t TcpConnection::Receive(char* data, std::size_t size,
                                      int timeout_ms) {
  pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) return 0;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n > 0) return n;
    if (n < 0 && errno == EINTR) continue;
    return -1;  // EOF (the peer closed, or a stop's half-close) or error.
  }
}

TcpConnection::WriteResult TcpConnection::Write(std::string_view first,
                                                std::string_view second) {
  if (broken()) return WriteResult::kFailed;
  std::lock_guard<std::mutex> lock(write_mu_);
  // Re-check under the lock: writers queued behind one that timed out
  // must fail at once, not each burn a deadline of their own against
  // the same dead socket.
  if (broken()) return WriteResult::kFailed;
  iovec iov[2] = {
      {.iov_base = const_cast<char*>(first.data()), .iov_len = first.size()},
      {.iov_base = const_cast<char*>(second.data()),
       .iov_len = second.size()},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  const std::size_t total = first.size() + second.size();
  std::size_t sent = 0;
  const bool bounded = write_timeout_ms_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(write_timeout_ms_);
  while (sent < total) {
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      return Break(WriteResult::kTimedOut);
    }
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN is SO_SNDTIMEO expiring with no byte sent.
      return Break(errno == EAGAIN || errno == EWOULDBLOCK
                       ? WriteResult::kTimedOut
                       : WriteResult::kFailed);
    }
    sent += static_cast<std::size_t>(n);
    bytes_written_.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_release);
    // Advance the iovec past what went out: short writes happen when
    // the socket buffer fills.
    std::size_t skip = static_cast<std::size_t>(n);
    while (skip > 0 && msg.msg_iovlen > 0) {
      if (skip >= msg.msg_iov[0].iov_len) {
        skip -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<char*>(msg.msg_iov[0].iov_base) + skip;
        msg.msg_iov[0].iov_len -= skip;
        skip = 0;
      }
    }
  }
  return WriteResult::kOk;
}

TcpListener::TcpListener(TcpListenerOptions options, ServeFn serve)
    : options_(std::move(options)), serve_(std::move(serve)) {}

TcpListener::~TcpListener() { Stop(std::chrono::milliseconds(0)); }

Status TcpListener::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) return Status::Internal("listener already started");
  }
  if (::pipe(stop_pipe_) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  // A failure below releases everything opened so far: a caller that
  // probes ports retries Start in a loop and must not leak fds.
  const auto fail = [this](Status status) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    return status;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail(
        Status::IoError(std::string("socket: ") + std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(
        Status::InvalidArgument("bad listen address: " + options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail(Status::IoError(
        "bind " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno)));
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    return fail(
        Status::IoError(std::string("listen: ") + std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpListener::RequestStop() {
  // Async-signal-safe. The pipe wakes the accept loop; waiters poll the
  // same pipe (level-triggered: the byte is never consumed).
  if (stop_requested_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void TcpListener::WaitUntilStopRequested() {
  while (!stop_requested()) {
    pollfd pfd{.fd = stop_pipe_[0], .events = POLLIN, .revents = 0};
    ::poll(&pfd, 1, 100);
  }
}

bool TcpListener::Stop(std::optional<std::chrono::milliseconds> grace) {
  RequestStop();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_ || stopped_) return false;
    stopped_ = true;
  }
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // With the accept thread gone, only this thread adds or erases
  // connections, so it walks the list without the lock. It takes the
  // lock only to erase a joined connection: a connection thread that
  // reads active_connections() (a STATS render) cannot deadlock
  // against the joins, and a draining connection stays counted until
  // it is joined.
  for (const auto& conn : connections_) ::shutdown(conn->fd_, SHUT_RD);
  if (grace.has_value()) CutStalled(*grace);
  while (!connections_.empty()) {
    connections_.front()->thread_.join();
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.pop_front();
  }

  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  return true;
}

void TcpListener::CutStalled(std::chrono::milliseconds grace) {
  struct Watch {
    TcpConnection* conn;
    std::uint64_t bytes;
    std::chrono::steady_clock::time_point last_progress;
  };
  std::vector<Watch> watching;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& conn : connections_) {
    watching.push_back(
        {conn.get(),
         conn->bytes_written_.load(std::memory_order_acquire), start});
  }
  // Every connection ends done or cut, so the joins after this return.
  while (!watching.empty()) {
    const auto now = std::chrono::steady_clock::now();
    std::erase_if(watching, [&](Watch& w) {
      if (w.conn->done_.load(std::memory_order_acquire)) return true;
      const std::uint64_t bytes =
          w.conn->bytes_written_.load(std::memory_order_acquire);
      if (bytes != w.bytes) {
        w.bytes = bytes;
        w.last_progress = now;
      }
      if (now - w.last_progress < grace) return false;
      ::shutdown(w.conn->fd_, SHUT_RDWR);
      return true;
    });
    if (!watching.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

bool TcpListener::started() const {
  std::lock_guard<std::mutex> lock(stop_mu_);
  return started_;
}

std::size_t TcpListener::active_connections() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  return connections_.size();
}

void TcpListener::ReapFinished() {
  // A done connection's thread no longer touches the list, so joining
  // it under the lock cannot deadlock.
  std::lock_guard<std::mutex> lock(connections_mu_);
  std::erase_if(connections_, [](const std::unique_ptr<TcpConnection>& c) {
    if (!c->done_.load(std::memory_order_acquire)) return false;
    c->thread_.join();
    return true;
  });
}

void TcpListener::AcceptLoop() {
  pollfd fds[2];
  fds[0] = {.fd = listen_fd_, .events = POLLIN, .revents = 0};
  fds[1] = {.fd = stop_pipe_[0], .events = POLLIN, .revents = 0};
  for (;;) {
    // A RequestStop issued before Start had a pipe to write leaves
    // only the flag; check it so the loop cannot block forever.
    if (stop_requested()) break;
    // Bounded wait so finished connections are reaped within ~1s even
    // when no new client connects.
    const int ready = ::poll(fds, 2, 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    ReapFinished();
    if (ready == 0) continue;
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (options_.max_connections > 0 &&
        active_connections() >= options_.max_connections) {
      if (options_.refusal != nullptr) {
        // Never blocking: the accept thread must not stall on a peer
        // that is part of the overload it is shedding.
        const std::string refusal = options_.refusal();
        [[maybe_unused]] const ssize_t n =
            ::send(fd, refusal.data(), refusal.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      }
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.write_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.write_timeout_ms / 1000;
      tv.tv_usec =
          static_cast<suseconds_t>(options_.write_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }

    auto conn =
        std::make_unique<TcpConnection>(fd, options_.write_timeout_ms);
    TcpConnection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread_ = std::thread([this, raw] {
      serve_(*raw);
      ::shutdown(raw->fd_, SHUT_RDWR);
      raw->done_.store(true, std::memory_order_release);
    });
  }
}

}  // namespace knnq
