// MetricsHistory: fixed-size ring-buffer time series over selected
// counters and gauges of a MetricsRegistry, so rate and saturation
// trends are visible from /statusz and the HISTORY admin verb without
// external tooling.
//
// Each series is a registry entry named at construction; a background
// thread reads every one once per interval into per-metric rings that
// share one timestamp ring. ~10 minutes of 1 s samples fit in the
// default capacity; older samples fall off the front. Snapshots are
// taken under the ring mutex, so every series in one snapshot has the
// same length and the same timestamps (consistency across series), and
// timestamps are strictly monotonic by construction (steady-clock
// offsets from a wall-clock base captured once).

#ifndef KNNQ_SRC_OBS_HISTORY_H_
#define KNNQ_SRC_OBS_HISTORY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics_registry.h"

namespace knnq::obs {

struct HistoryOptions {
  /// Sampling period of the background thread. The CLI's
  /// --history-interval-ms.
  int interval_ms = 1000;

  /// Samples retained per series (ring capacity). 600 x 1 s = 10 min.
  std::size_t capacity = 600;
};

/// A consistent copy of every ring: timestamps are shared (sample i of
/// every series was taken at t_ms[i]), oldest first.
struct HistorySnapshot {
  int interval_ms = 0;
  /// Milliseconds since the Unix epoch, monotone non-decreasing.
  std::vector<std::uint64_t> t_ms;
  std::vector<std::string> names;
  /// values[s][i] pairs with t_ms[i]; every inner vector has
  /// t_ms.size() elements.
  std::vector<std::vector<double>> values;
};

class MetricsHistory {
 public:
  /// Samples the counters and gauges of `registry` named in `series`,
  /// in that order. Every name must already be registered as a counter
  /// or gauge (checked here). `registry` must outlive the history.
  MetricsHistory(const MetricsRegistry* registry,
                 std::vector<std::string> series,
                 HistoryOptions options = {});
  ~MetricsHistory();

  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// Takes the t=0 sample immediately (so series are non-empty from
  /// the first scrape) and spawns the sampler thread. Idempotent.
  void Start();

  /// Stops and joins the sampler thread. Idempotent; the destructor
  /// calls it.
  void Stop();

  /// One synchronous sampling pass over every series - the sampler
  /// thread's body, exposed so tests can drive the rings directly.
  void SampleOnce();

  /// Consistent copy of every ring (see HistorySnapshot).
  HistorySnapshot Snapshot() const;

  /// The snapshot as JSON: `{"interval_ms": N, "samples": M,
  /// "t_ms": [...], "series": {"name": [...], ...}}`.
  std::string RenderJson() const;

 private:
  void SamplerLoop();

  const MetricsRegistry* registry_;
  /// Registry names of the series; fixed at construction.
  const std::vector<std::string> names_;
  HistoryOptions options_;

  mutable std::mutex mu_;
  /// Ring state, guarded by mu_: head_ is the oldest sample's slot,
  /// size_ the live count. times_ and each values_[s] have capacity
  /// slots; values_[s] parallels names_[s].
  std::vector<std::uint64_t> times_;
  std::vector<std::vector<double>> values_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;

  /// Wall-clock epoch of base_steady_, captured at construction;
  /// sample timestamps are base_wall_ms_ + steady elapsed, monotone
  /// even when the wall clock steps.
  std::uint64_t base_wall_ms_ = 0;
  std::chrono::steady_clock::time_point base_steady_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread sampler_;
};

}  // namespace knnq::obs

#endif  // KNNQ_SRC_OBS_HISTORY_H_
