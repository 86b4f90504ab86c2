#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

namespace {

std::size_t Rank(std::size_t n, double p) {
  // The epsilon keeps decimal percentiles exact: 99.9% of 10000 is rank
  // 9990, not 9991 from 0.999 rounding up in binary.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t rank = Rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

bool Supported(std::size_t n, double p) { return SamplesBeyond(n, p) >= 10; }

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double p) { return sorted[Rank(s.n, p) - 1]; };
  s.p50 = at(50);
  s.p99 = at(99);
  s.tail_p = 50;
  s.tail = s.p50;
  std::vector<double> window_p99;
  for (std::size_t at = 0; at + kWindow <= s.n; at += kWindow) {
    window_p99.push_back(NearestRank(
        std::vector<double>(samples.begin() + at,
                            samples.begin() + at + kWindow),
        99));
  }
  s.windows = window_p99.size();
  s.p99_windowed = s.windows == 0 ? s.p99 : NearestRank(window_p99, 50);
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (Supported(s.n, p)) {
      s.tail_p = p;
      s.tail = at(p);
      break;
    }
  }
  return s;
}

std::string Summary::ToString(const char* unit) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "p50 %.4g %s, p%g %.4g %s (n=%zu, %zu beyond), windowed p99 "
                "%.4g %s (%zu windows)",
                p50, unit, tail_p, tail, unit, n, SamplesBeyond(n, tail_p),
                p99_windowed, unit, windows);
  return buf;
}

SliceMedians MedianOverSlices(const std::vector<Completion>& completions,
                              std::int64_t start, std::int64_t end,
                              std::size_t slices) {
  SliceMedians out;
  if (slices == 0 || end <= start) return out;
  const double width = static_cast<double>(end - start) / slices;
  const auto slice_of = [&](std::int64_t t) -> long {
    if (t < start || t >= end) return -1;
    return std::min<long>(static_cast<long>((t - start) / width),
                          static_cast<long>(slices) - 1);
  };
  std::vector<std::vector<double>> latency(slices);
  std::vector<double> answered(slices, 0);
  for (const Completion& c : completions) {
    if (const long s = slice_of(c.sent); s >= 0) {
      latency[s].push_back(c.latency_ms);
    }
    if (const long s = slice_of(c.done); s >= 0) answered[s] += 1;
  }
  std::vector<double> p50, rate;
  for (std::size_t s = 0; s < slices; ++s) {
    p50.push_back(NearestRank(latency[s], 50));
    rate.push_back(answered[s] / (width / 1e9));
  }
  out.p50_ms = NearestRank(p50, 50);
  out.per_second = NearestRank(rate, 50);
  return out;
}

std::vector<std::int64_t> PoissonSchedule(double rate, double seconds,
                                          std::uint64_t seed) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, seconds * 1e9);
  std::vector<std::int64_t> at(count);
  for (auto& t : at) t = static_cast<std::int64_t>(unit(rng));
  std::sort(at.begin(), at.end());
  return at;
}

double OpenLoopLatencyMs(const OpenLoopSample& sample) {
  if (sample.failed || sample.done < 0) return kInf;
  return static_cast<double>(sample.done - sample.scheduled) / 1e6;
}

double LatenessMs(const OpenLoopSample& sample) {
  return static_cast<double>(sample.sent - sample.scheduled) / 1e6;
}

StepVerdict JudgeStep(double offered_qps,
                      const std::vector<OpenLoopSample>& samples,
                      double limit_ms) {
  StepVerdict v;
  v.offered_qps = offered_qps;
  std::vector<double> latency;
  latency.reserve(samples.size());
  std::int64_t start = samples.empty() ? 0 : samples.front().scheduled;
  std::int64_t last_done = start;
  std::size_t answered = 0;
  for (const OpenLoopSample& s : samples) {
    start = std::min(start, s.scheduled);
    if (s.failed) ++v.failed;
    if (s.done < 0) {
      ++v.unanswered;
    } else if (!s.failed) {
      ++answered;
      last_done = std::max(last_done, s.done);
    }
    latency.push_back(OpenLoopLatencyMs(s));
  }
  v.latency = Summarize(latency);
  if (last_done > start) {
    v.achieved_qps = static_cast<double>(answered) /
                     (static_cast<double>(last_done - start) / 1e9);
  }
  // Samples arrive in schedule order; quarters are by arrival.
  const std::size_t quarter = samples.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(latency.begin(),
                                    latency.begin() + quarter);
    const std::vector<double> last(latency.end() - quarter, latency.end());
    v.first_quarter_p50_ms = NearestRank(first, 50);
    v.last_quarter_p50_ms = NearestRank(last, 50);
    v.backlog_growing = !(v.last_quarter_p50_ms <=
                          1.5 * v.first_quarter_p50_ms + 0.1 * limit_ms);
  }
  v.meets_limit = !samples.empty() && v.latency.p99_windowed <= limit_ms &&
                  !v.backlog_growing;
  return v;
}

double MaxRateQps(const std::vector<StepVerdict>& steps) {
  const StepVerdict* best = nullptr;
  for (const StepVerdict& step : steps) {
    if (step.meets_limit &&
        (best == nullptr || step.offered_qps > best->offered_qps)) {
      best = &step;
    }
  }
  return best == nullptr ? 0 : best->achieved_qps;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != Span::kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    cover.clear();
    for (std::uint32_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start, span.start);
      const std::int64_t hi = std::min(spans[c].end, span.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

}  // namespace perfbench
