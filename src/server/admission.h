// Admission control: the server's global bound on concurrently
// admitted queries. A slot is held from dispatch until the engine's
// completion callback runs; when every slot is taken, new work is
// refused with a structured `overloaded` error instead of queueing
// unboundedly. The gate holds no waiters: graceful shutdown drains
// each connection through Session::WaitIdle (Server::Stop), and every
// admitted query releases its slot before its session counts it done.

#ifndef KNNQ_SRC_SERVER_ADMISSION_H_
#define KNNQ_SRC_SERVER_ADMISSION_H_

#include <cstddef>
#include <mutex>

namespace knnq::server {

/// Counting gate, all member functions thread-safe.
class AdmissionController {
 public:
  /// `max_in_flight` of 0 means unlimited (the gauge still tracks).
  explicit AdmissionController(std::size_t max_in_flight)
      : max_in_flight_(max_in_flight) {}

  /// Claims a slot; false when the gate is full.
  bool TryAcquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_in_flight_ > 0 && in_flight_ >= max_in_flight_) return false;
    ++in_flight_;
    return true;
  }

  /// Returns a slot claimed by TryAcquire.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }

  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
  }

  std::size_t max_in_flight() const { return max_in_flight_; }

 private:
  const std::size_t max_in_flight_;
  mutable std::mutex mu_;
  std::size_t in_flight_ = 0;
};

}  // namespace knnq::server

#endif  // KNNQ_SRC_SERVER_ADMISSION_H_
