// The benchmark's own statistics: nearest-rank percentiles with the
// ten-samples-beyond rule, open-loop arrival schedules and latency
// accounting, the max-rate rule of the point_lookup ladder, and span
// self time. Everything here is pure so tests/stats_test.cc can pin it.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n)
/// of the ascending order. `samples` need not be sorted. 0 when empty.
double NearestRank(std::vector<double> samples, double p);

/// Samples strictly after the nearest-rank position of `p`: the
/// "samples beyond" a percentile, n - ceil(p/100 * n).
std::size_t SamplesBeyond(std::size_t n, double p);

/// True when percentile `p` of `n` samples has at least ten samples
/// beyond it, so it is supported by the sample.
bool Supported(std::size_t n, double p);

/// Samples per window of the windowed p99: the fewest whose p99 has
/// ten samples beyond it.
inline constexpr std::size_t kWindow = 1000;

/// Median and tail of one timing, with the sample count printed beside
/// it. `tail_p` is the highest of 99.9/99/95/90/50 that `n` supports.
///
/// `p99_windowed` is the median, over consecutive windows of kWindow
/// samples in arrival order, of each window's nearest-rank p99 (the
/// whole sample's p99 when it has fewer than kWindow samples). A stall
/// of the host - a virtual CPU descheduled for 10-20 ms - inflates the
/// p99 of the window it falls in, not the median over windows, so this
/// is the tail that repeats from run to run.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;  // Nearest-rank p99 whether or not it is supported.
  double tail_p = 0;
  double tail = 0;
  double p99_windowed = 0;
  std::size_t windows = 0;
  std::string ToString(const char* unit) const;
};
/// `samples` in arrival order (the windows follow it).
Summary Summarize(const std::vector<double>& samples);

/// One answered request for slice statistics: when it was sent (or
/// scheduled) and answered, ns, and its latency.
struct Completion {
  std::int64_t sent = 0;
  std::int64_t done = 0;
  double latency_ms = 0;
};

/// Medians over `slices` equal time slices of [start, end): each
/// slice's median latency (of requests sent in it) and completion rate
/// (requests answered in it per second). The run-level figure is the
/// median over slices, so a host slowdown covering less than half the
/// run moves it little.
struct SliceMedians {
  double p50_ms = 0;
  double per_second = 0;
};
SliceMedians MedianOverSlices(const std::vector<Completion>& completions,
                              std::int64_t start, std::int64_t end,
                              std::size_t slices);

/// Arrival offsets (ns from the step start) of a Poisson process of
/// `rate` per second over `seconds`, conditioned on exactly
/// round(rate * seconds) arrivals: the sorted uniform order statistics.
std::vector<std::int64_t> PoissonSchedule(double rate, double seconds,
                                          std::uint64_t seed);

/// One open-loop request as the generator saw it. Times are ns on one
/// monotonic clock; done < 0 means no answer arrived.
struct OpenLoopSample {
  std::int64_t scheduled = 0;
  std::int64_t sent = 0;
  std::int64_t done = -1;
  bool failed = false;  // Answered an error record (refusals included).
};

/// Latency from the SCHEDULED send time, so a stall anywhere - in the
/// generator, the network or the server - counts against every request
/// that was due during it. Failed (refused included) and unanswered
/// requests are +inf: they miss any latency limit.
double OpenLoopLatencyMs(const OpenLoopSample& sample);

/// How late the generator sent a request, in ms.
double LatenessMs(const OpenLoopSample& sample);

/// One ladder step, judged by the max-rate rule.
struct StepVerdict {
  double offered_qps = 0;
  double achieved_qps = 0;  // Answered requests / (last answer - start).
  Summary latency;          // Failures counted as +inf.
  std::size_t failed = 0;
  std::size_t unanswered = 0;
  double first_quarter_p50_ms = 0;
  double last_quarter_p50_ms = 0;
  bool backlog_growing = false;
  bool meets_limit = false;
};

/// Judges one step: it meets the limit when its windowed p99, with
/// every failed (refused included) or unanswered request counted as
/// +inf, is at most `limit_ms`, and the backlog did not grow: the
/// median latency of the step's last quarter of arrivals is at most
/// 1.5x that of its first quarter plus a tenth of the limit.
StepVerdict JudgeStep(double offered_qps,
                      const std::vector<OpenLoopSample>& samples,
                      double limit_ms);

/// max_rate_qps: the achieved rate of the highest-offered step that
/// meets the limit; 0 when none does.
double MaxRateQps(const std::vector<StepVerdict>& steps);

/// One traced interval. `parent` indexes the same span vector (or is
/// kNoParent); `request` groups the spans of one statement.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t request = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals (clipped to the span).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
