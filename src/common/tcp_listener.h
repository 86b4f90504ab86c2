// TcpListener: the socket lifecycle of a TCP serving plane. The KNNQL
// server (src/server/server.h) and the HTTP observability plane
// (src/obs/http_server.h) each run one instance and keep only their
// protocol: the listener hands every accepted connection to the
// plane's serve function on a thread of its own.
//
// The listener owns bind and listen, a self-pipe that wakes the accept
// loop on a stop request (async-signal-safe), reaping of finished
// connections, the connection cap (beyond it an accept is answered
// with the plane's refusal bytes and closed), TCP_NODELAY and
// SO_SNDTIMEO on every accepted socket, one gathered write bounded by
// a wall-clock deadline, and a stop that half-closes every connection,
// cuts the ones whose writes stall past a grace period, and joins them
// all.

#ifndef KNNQ_SRC_COMMON_TCP_LISTENER_H_
#define KNNQ_SRC_COMMON_TCP_LISTENER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "src/common/status.h"

namespace knnq {

struct TcpListenerOptions {
  /// Listen address (dotted IPv4).
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;

  /// Open connections beyond which an accept is refused; 0 means
  /// unlimited.
  std::size_t max_connections = 0;

  /// Called on the accept thread for each connection refused at
  /// max_connections; the bytes it returns are sent (best effort,
  /// never blocking) before the socket closes. Null sends nothing.
  std::function<std::string()> refusal = nullptr;

  /// Wall-clock budget of one TcpConnection::Write; 0 means none.
  int write_timeout_ms = 0;

  /// SO_SNDBUF of accepted sockets; 0 keeps the OS default.
  int sndbuf_bytes = 0;
};

/// One accepted connection. The listener owns it; the plane's serve
/// function uses it on the connection's thread, and Write may also be
/// called from other threads while that function runs.
class TcpConnection {
 public:
  enum class WriteResult {
    kOk,
    /// The deadline expired, or SO_SNDTIMEO did with no byte sent: the
    /// peer stopped reading.
    kTimedOut,
    /// The socket failed, or an earlier write already had.
    kFailed,
  };

  /// Takes ownership of `fd`.
  TcpConnection(int fd, int write_timeout_ms)
      : fd_(fd), write_timeout_ms_(write_timeout_ms) {}

  /// Closes the socket; the thread must have been joined.
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Waits up to `timeout_ms` for input and reads what arrived into
  /// `data`. Returns the byte count, 0 when the wait expired, and -1
  /// once the peer closed or the socket failed.
  std::ptrdiff_t Receive(char* data, std::size_t size, int timeout_ms);

  /// Sends `first` then `second` as one gathered write, copying
  /// neither. Thread-safe: writers take turns under a per-connection
  /// lock. The write_timeout_ms deadline is wall-clock for the whole
  /// write, not per send: SO_SNDTIMEO alone restarts on any progress,
  /// so a peer that reads a byte every few seconds would park the
  /// writer forever; it only bounds each send so that the clock gets
  /// checked. A write that does not return kOk marks the connection
  /// broken, and every later write fails at once.
  WriteResult Write(std::string_view first, std::string_view second = {});

  /// A write failed: the peer is gone or stopped reading.
  bool broken() const { return broken_.load(std::memory_order_relaxed); }

 private:
  friend class TcpListener;

  WriteResult Break(WriteResult result) {
    broken_.store(true, std::memory_order_relaxed);
    return result;
  }

  const int fd_;
  const int write_timeout_ms_;
  std::mutex write_mu_;
  std::atomic<bool> broken_{false};
  /// The serve function returned; the thread is about to exit.
  std::atomic<bool> done_{false};
  /// Bytes that reached the socket; Stop tells a draining peer
  /// (advancing) from a stuck one (stalled) by watching it.
  std::atomic<std::uint64_t> bytes_written_{0};
  std::thread thread_;
};

class TcpListener {
 public:
  /// Serves one connection on its own thread. When it returns, the
  /// listener shuts the socket down; the connection is closed and
  /// freed once its thread is joined.
  using ServeFn = std::function<void(TcpConnection& conn)>;

  TcpListener(TcpListenerOptions options, ServeFn serve);

  /// Stops (cutting every connection at once) if still running.
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds, listens and spawns the accept thread. A failure releases
  /// every descriptor it opened, so a caller may retry.
  Status Start();

  /// Requests a stop from any thread, signal handlers included: one
  /// atomic exchange and one pipe write. Does not wait.
  void RequestStop();

  /// Blocks until RequestStop.
  void WaitUntilStopRequested();

  /// Stops accepting, half-closes every connection (its reader sees
  /// EOF), and joins them all. SHUT_RD never unblocks a writer, so a
  /// connection that then goes `grace` with no byte of a write
  /// reaching its socket is cut with a full shutdown, which fails the
  /// blocked write; one whose peer keeps reading keeps draining, as
  /// its progress restarts the clock. nullopt never cuts. Returns
  /// whether this call stopped a running listener (false when it was
  /// never started or already stopped).
  bool Stop(std::optional<std::chrono::milliseconds> grace);

  /// The bound port (after Start).
  std::uint16_t port() const { return port_; }

  /// Start succeeded (it stays true after Stop).
  bool started() const;

  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Connections accepted and not yet joined: one a stop is draining
  /// still counts.
  std::size_t active_connections() const;

 private:
  void AcceptLoop();
  /// Joins and frees finished connections (accept thread).
  void ReapFinished();
  /// The half-closed connections' drain watch of Stop.
  void CutStalled(std::chrono::milliseconds grace);

  const TcpListenerOptions options_;
  const ServeFn serve_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Self-pipe waking the accept loop and WaitUntilStopRequested.
  int stop_pipe_[2] = {-1, -1};

  std::atomic<bool> stop_requested_{false};
  mutable std::mutex stop_mu_;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex connections_mu_;
  std::list<std::unique_ptr<TcpConnection>> connections_;

  std::thread accept_thread_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_COMMON_TCP_LISTENER_H_
