#include "src/obs/metrics_registry.h"

#include <bit>
#include <cctype>
#include <cmath>

#include "src/common/check.h"
#include "src/common/text_parse.h"

namespace knnq::obs {

void Histogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t bucket =
      std::min<std::size_t>(kBuckets - 1, std::bit_width(ns | 1) - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double Histogram::BucketUpperSeconds(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) + 1) * 1e-9;
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum_seconds =
      static_cast<double>(total_ns_.load(std::memory_order_relaxed)) / 1e9;
  return snap;
}

HistogramSummary Histogram::Summarize() const {
  const Snapshot snap = Snap();
  HistogramSummary summary;
  summary.count = snap.count;
  if (snap.count == 0) return summary;
  summary.mean_ms =
      snap.sum_seconds * 1e3 / static_cast<double>(snap.count);
  const auto percentile = [&](double p) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(snap.count)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += snap.counts[i];
      if (seen >= rank) return BucketUpperSeconds(i) * 1e3;
    }
    return BucketUpperSeconds(kBuckets - 1) * 1e3;
  };
  summary.p50_ms = percentile(0.50);
  summary.p95_ms = percentile(0.95);
  summary.p99_ms = percentile(0.99);
  return summary;
}

std::string HistogramSummary::ToJson() const {
  return "{\"count\": " + std::to_string(count) +
         ", \"mean_ms\": " + FormatDouble(mean_ms) +
         ", \"p50_ms\": " + FormatDouble(p50_ms) +
         ", \"p95_ms\": " + FormatDouble(p95_ms) +
         ", \"p99_ms\": " + FormatDouble(p99_ms) + "}";
}

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void MetricsRegistry::Register(Entry entry) {
  KNNQ_CHECK(ValidMetricName(entry.name));
  if (entry.kind == Entry::Kind::kCounter) {
    KNNQ_CHECK(entry.name.ends_with("_total"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& existing : entries_) {
    KNNQ_CHECK(existing.name != entry.name);
  }
  entries_.push_back(std::move(entry));
}

void MetricsRegistry::RegisterCounter(std::string name, std::string help,
                                      const Counter* counter) {
  Entry entry;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.kind = Entry::Kind::kCounter;
  entry.counter = counter;
  Register(std::move(entry));
}

void MetricsRegistry::RegisterHistogram(std::string name, std::string help,
                                        const Histogram* histogram) {
  Entry entry;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.kind = Entry::Kind::kHistogram;
  entry.histogram = histogram;
  Register(std::move(entry));
}

void MetricsRegistry::RegisterCallbackCounter(
    std::string name, std::string help, std::function<std::uint64_t()> fn) {
  Entry entry;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.kind = Entry::Kind::kCounter;
  entry.counter_fn = std::move(fn);
  Register(std::move(entry));
}

void MetricsRegistry::RegisterCallbackGauge(std::string name,
                                            std::string help,
                                            std::function<double()> fn) {
  Entry entry;
  entry.name = std::move(name);
  entry.help = std::move(help);
  entry.kind = Entry::Kind::kGauge;
  entry.gauge_fn = std::move(fn);
  Register(std::move(entry));
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Entry& entry : entries_) {
    out += "# HELP " + entry.name + " " + entry.help + "\n";
    switch (entry.kind) {
      case Entry::Kind::kCounter: {
        out += "# TYPE " + entry.name + " counter\n";
        out += entry.name + " " + std::to_string(entry.CounterValue()) +
               "\n";
        break;
      }
      case Entry::Kind::kGauge: {
        out += "# TYPE " + entry.name + " gauge\n";
        out += entry.name + " " + FormatDouble(entry.gauge_fn()) + "\n";
        break;
      }
      case Entry::Kind::kHistogram: {
        out += "# TYPE " + entry.name + " histogram\n";
        const Histogram::Snapshot snap = entry.histogram->Snap();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          cumulative += snap.counts[i];
          out += entry.name + "_bucket{le=\"" +
                 FormatDouble(Histogram::BucketUpperSeconds(i)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += entry.name + "_bucket{le=\"+Inf\"} " +
               std::to_string(snap.count) + "\n";
        out += entry.name + "_sum " + FormatDouble(snap.sum_seconds) + "\n";
        out += entry.name + "_count " + std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  for (const Entry& entry : entries_) {
    if (out.size() > 1) out += ", ";
    out += "\"" + entry.name + "\": ";
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        out += std::to_string(entry.CounterValue());
        break;
      case Entry::Kind::kGauge:
        out += FormatDouble(entry.gauge_fn());
        break;
      case Entry::Kind::kHistogram:
        out += entry.histogram->Summarize().ToJson();
        break;
    }
  }
  return out + "}";
}

std::optional<double> MetricsRegistry::Read(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.name != name) continue;
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        return static_cast<double>(entry.CounterValue());
      case Entry::Kind::kGauge:
        return entry.gauge_fn();
      case Entry::Kind::kHistogram:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace knnq::obs
