// Generic process-wide metrics: counters, gauges, and log-bucketed
// latency histograms, registered by name and rendered two ways: as
// Prometheus text exposition (the server's METRICS verb and GET
// /metrics) and as one JSON object keyed by metric name (the STATS
// verb and /statusz). The HISTORY sampler reads entries by name.
//
// Instruments are owned by their call sites (ServerMetrics members, a
// bench fixture, ...) and updated with lock-free relaxed atomics; a
// MetricsRegistry holds non-owning registrations plus callback metrics
// for snapshot-style sources (EngineStatsSnapshot, NeighborhoodCache
// stats) that are read at scrape time. Rendering iterates in
// registration order, so both renderings are stable scrape to scrape.

#ifndef KNNQ_SRC_OBS_METRICS_REGISTRY_H_
#define KNNQ_SRC_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace knnq::obs {

/// Monotone event counter. Relaxed atomics: totals are exact, but a
/// reader may observe counts mid-batch.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (set, not accumulated).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time percentile summary of a Histogram.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  /// `{"count": ..., "mean_ms": ..., "p50_ms": ..., ...}`.
  std::string ToJson() const;
};

/// Log-bucketed latency histogram: bucket i holds samples in
/// [2^i, 2^(i+1)) NANOSECONDS, so a 100ns cache-hit query and an
/// hour-long scan both land with <= 2x quantization error (the
/// microsecond-bucketed predecessor collapsed every sub-us sample into
/// bucket 0 and truncated its contribution to the mean to zero).
/// Record and Summarize are thread-safe (relaxed atomics; percentiles
/// are an instantaneous approximation, not a consistent snapshot).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Record(double seconds);

  /// Percentiles use each bucket's upper bound, biasing the estimate
  /// conservatively (reported latency >= true latency).
  HistogramSummary Summarize() const;

  /// Bucket upper bound in seconds: 2^(i+1) nanoseconds.
  static double BucketUpperSeconds(std::size_t i);

  /// Raw cumulative state for exposition: per-bucket counts, total
  /// count, and the sum of samples in seconds.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts;
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
  };
  Snapshot Snap() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Non-owning name -> instrument registry, the one renderer of every
/// served metric.
/// Registration normally happens once at startup; it is mutex-guarded
/// anyway so tests may register concurrently. Registered pointers must
/// outlive the registry. Names must match
/// [a-zA-Z_:][a-zA-Z0-9_:]* and counter names must end in "_total"
/// (both checked).
class MetricsRegistry {
 public:
  void RegisterCounter(std::string name, std::string help,
                       const Counter* counter);
  void RegisterHistogram(std::string name, std::string help,
                         const Histogram* histogram);
  /// Callback metrics sample snapshot-style sources at scrape time.
  void RegisterCallbackCounter(std::string name, std::string help,
                               std::function<std::uint64_t()> fn);
  void RegisterCallbackGauge(std::string name, std::string help,
                             std::function<double()> fn);

  /// The full Prometheus text exposition: for each metric a # HELP and
  /// # TYPE line then its samples, in registration order.
  std::string RenderPrometheus() const;

  /// Every metric as one JSON object keyed by name, in registration
  /// order: counters as integers, gauges as shortest round-trip
  /// doubles, histograms as HistogramSummary::ToJson objects.
  std::string RenderJson() const;

  /// The current value of the counter or gauge registered as `name`;
  /// nullopt when no counter or gauge has that name.
  std::optional<double> Read(std::string_view name) const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;

    std::uint64_t CounterValue() const {
      return counter != nullptr ? counter->Value() : counter_fn();
    }
  };

  void Register(Entry entry);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace knnq::obs

#endif  // KNNQ_SRC_OBS_METRICS_REGISTRY_H_
