#include "src/obs/history.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/text_parse.h"

namespace knnq::obs {

MetricsHistory::MetricsHistory(const MetricsRegistry* registry,
                               std::vector<std::string> series,
                               HistoryOptions options)
    : registry_(registry),
      names_(std::move(series)),
      options_(options),
      values_(names_.size()) {
  for (const std::string& name : names_) {
    KNNQ_CHECK_MSG(registry_->Read(name).has_value(), name.c_str());
  }
  options_.interval_ms = std::max(options_.interval_ms, 1);
  options_.capacity = std::max<std::size_t>(options_.capacity, 1);
  base_wall_ms_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  base_steady_ = std::chrono::steady_clock::now();
}

MetricsHistory::~MetricsHistory() { Stop(); }

void MetricsHistory::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  // The t=0 sample: series answer non-empty to the very first scrape
  // instead of only after one full interval.
  SampleOnce();
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void MetricsHistory::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    started_ = false;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  sampler_.join();
}

void MetricsHistory::SamplerLoop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.interval_ms),
                          [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void MetricsHistory::SampleOnce() {
  // Read every series OUTSIDE the ring mutex: a slow callback (an
  // engine stats snapshot) must not block a concurrent Snapshot().
  std::vector<double> row;
  row.reserve(names_.size());
  for (const std::string& name : names_) {
    row.push_back(*registry_->Read(name));
  }
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - base_steady_)
          .count();
  const std::uint64_t t_ms =
      base_wall_ms_ + static_cast<std::uint64_t>(elapsed);

  std::lock_guard<std::mutex> lock(mu_);
  if (times_.empty()) {
    times_.assign(options_.capacity, 0);
    for (auto& ring : values_) ring.assign(options_.capacity, 0.0);
  }
  const std::size_t slot = (head_ + size_) % options_.capacity;
  times_[slot] = t_ms;
  for (std::size_t s = 0; s < row.size(); ++s) values_[s][slot] = row[s];
  if (size_ < options_.capacity) {
    ++size_;
  } else {
    head_ = (head_ + 1) % options_.capacity;  // Overwrote the oldest.
  }
}

HistorySnapshot MetricsHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistorySnapshot snap;
  snap.interval_ms = options_.interval_ms;
  snap.t_ms.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    snap.t_ms.push_back(times_[(head_ + i) % options_.capacity]);
  }
  snap.names = names_;
  snap.values.reserve(names_.size());
  for (std::size_t s = 0; s < names_.size(); ++s) {
    std::vector<double> series;
    series.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      series.push_back(values_[s][(head_ + i) % options_.capacity]);
    }
    snap.values.push_back(std::move(series));
  }
  return snap;
}

std::string MetricsHistory::RenderJson() const {
  const HistorySnapshot snap = Snapshot();
  std::string out = "{\"interval_ms\": " +
                    std::to_string(snap.interval_ms) +
                    ", \"samples\": " + std::to_string(snap.t_ms.size()) +
                    ", \"t_ms\": [";
  for (std::size_t i = 0; i < snap.t_ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(snap.t_ms[i]);
  }
  out += "], \"series\": {";
  for (std::size_t s = 0; s < snap.names.size(); ++s) {
    if (s > 0) out += ", ";
    out += "\"" + snap.names[s] + "\": [";
    for (std::size_t i = 0; i < snap.values[s].size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatDouble(snap.values[s][i]);
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace knnq::obs
