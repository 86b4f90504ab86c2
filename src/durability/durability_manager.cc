#include "src/durability/durability_manager.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/obs/log.h"

namespace knnq::durability {

namespace {

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    DurabilityOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("--data-dir must not be empty");
  }
  if (::access(options.data_dir.c_str(), W_OK) != 0) {
    return Status::IoError("--data-dir is not a writable directory: " +
                           options.data_dir);
  }
  std::unique_ptr<DurabilityManager> mgr(
      new DurabilityManager(std::move(options)));
  if (FileExists(mgr->snapshot_path())) {
    auto image = ReadSnapshot(mgr->snapshot_path());
    if (!image.ok()) return image.status();
    mgr->snapshot_ = std::move(*image);
    mgr->have_snapshot_ = true;
  }
  if (FileExists(mgr->wal_path())) {
    auto scan = ScanWal(mgr->wal_path());
    if (!scan.ok()) return scan.status();
    mgr->scan_ = std::move(*scan);
  }
  return mgr;
}

Status DurabilityManager::SeedCatalog(Catalog* catalog) {
  for (SnapshotRelation& rel : snapshot_.relations) {
    IndexOptions build = options_.index_options;
    build.type = rel.type;
    auto index = BuildIndex(std::move(rel.points), build);
    if (!index.ok()) return index.status();
    if (Status s = catalog->AdoptRelation(rel.name,
                                          std::move(index.value()),
                                          rel.next_id);
        !s.ok()) {
      return s;
    }
    catalog->StampLsn(rel.name, rel.last_lsn);
  }
  return Status::Ok();
}

Result<RecoveryReport> DurabilityManager::Recover(QueryEngine* engine) {
  engine_ = engine;
  RecoveryReport report;
  report.from_snapshot = have_snapshot_;
  report.snapshot_lsn = snapshot_.lsn;
  report.wal_truncated = scan_.truncated;
  report.wal_tail_error = scan_.tail_error;
  last_lsn_ = std::max(snapshot_.lsn, scan_.last_lsn);

  // Replay mode: the engine's write path calls BeginCommit as usual,
  // but the sink hands back the record's original LSN instead of
  // appending — the replayed history is already on disk.
  replaying_ = true;
  for (WalRecord& record : scan_.records) {
    if (record.lsn <= snapshot_.lsn) continue;  // already in the image
    replay_lsn_ = record.lsn;
    // A replayed record may fail exactly as it did live (e.g. a batch
    // whose suffix was invalid applied only its prefix) — that IS the
    // recovered state, so the outcome is not an error here.
    (void)engine->ExecuteDml(std::move(record.request));
    ++report.replayed_records;
    replayed_total_.fetch_add(1, std::memory_order_relaxed);
  }
  replaying_ = false;
  scan_.records.clear();
  scan_.records.shrink_to_fit();

  // Open the writer over the verified prefix (dropping any torn
  // tail), or create a fresh log.
  auto writer = WalWriter::Open(
      wal_path(),
      WalWriter::Options{.sync = options_.sync,
                         .sync_interval_ops = options_.sync_interval_ops},
      scan_.good_bytes);
  if (!writer.ok()) return writer.status();
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    writer_ = std::move(*writer);
    wal_size_bytes_.store(writer_.size_bytes(), std::memory_order_relaxed);
    last_lsn_metric_.store(last_lsn_, std::memory_order_relaxed);
    writer_open_.store(true, std::memory_order_relaxed);
  }

  // First boot of this data dir: snapshot the seed relations (--data
  // files never hit the WAL) so every later record applies on top of
  // a recoverable base.
  if (!have_snapshot_) {
    auto cut = Snapshot(engine);
    if (!cut.ok()) return cut.status();
  }
  report.last_lsn = last_lsn_;
  return report;
}

Result<std::uint64_t> DurabilityManager::Snapshot(QueryEngine* engine) {
  // Quiesce: every in-flight commit holds the token shared from
  // append to publish, so once we hold it exclusively the catalog
  // reflects exactly the log tail.
  std::unique_lock<std::shared_mutex> quiesce(commit_mu_);
  SnapshotImage image;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    image.lsn = last_lsn_;
  }
  const Catalog& catalog = engine->catalog();
  for (const std::string& name : catalog.Names()) {
    auto rel = catalog.Get(name);
    if (!rel.ok()) continue;
    SnapshotRelation snap;
    snap.name = name;
    snap.type = (*rel)->index->type();
    snap.next_id = (*rel)->next_id;
    snap.last_lsn = (*rel)->last_lsn;
    snap.points = (*rel)->index->points();
    image.relations.push_back(std::move(snap));
  }
  if (Status s = WriteSnapshot(snapshot_path(), image); !s.ok()) return s;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    // The snapshot's LSN is the tail, so every logged record is now
    // redundant: the log restarts empty.
    if (Status s = writer_.TruncateAll(); !s.ok()) return s;
    wal_size_bytes_.store(writer_.size_bytes(), std::memory_order_relaxed);
    syncs_total_.store(writer_.syncs(), std::memory_order_relaxed);
    // A truncated log has nothing left to fsync: the debt is gone.
    unsynced_ops_.store(0, std::memory_order_relaxed);
    first_unsynced_ms_.store(0, std::memory_order_relaxed);
  }
  have_snapshot_ = true;
  ops_since_snapshot_.store(0, std::memory_order_relaxed);
  snapshots_total_.fetch_add(1, std::memory_order_relaxed);
  return image.lsn;
}

Result<std::uint64_t> DurabilityManager::BeginCommit(
    const DmlRequest& request) {
  if (replaying_) return replay_lsn_;
  commit_mu_.lock_shared();
  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  const std::uint64_t lsn = last_lsn_ + 1;
  const std::uint64_t syncs_before = writer_.syncs();
  auto bytes = writer_.Append(lsn, request);
  if (!bytes.ok()) {
    append_failed_.store(true, std::memory_order_relaxed);
    commit_mu_.unlock_shared();
    return bytes.status();
  }
  last_lsn_ = lsn;
  appends_total_.fetch_add(1, std::memory_order_relaxed);
  append_bytes_total_.fetch_add(*bytes, std::memory_order_relaxed);
  syncs_total_.store(writer_.syncs(), std::memory_order_relaxed);
  // Sync-debt bookkeeping: an fsync barrier inside Append flushed
  // everything appended so far (this record included); otherwise this
  // record joined the crash-loss window, and if it opened the window
  // its append time anchors the fsync-lag gauge.
  if (writer_.syncs() != syncs_before) {
    unsynced_ops_.store(0, std::memory_order_relaxed);
    first_unsynced_ms_.store(0, std::memory_order_relaxed);
  } else if (unsynced_ops_.fetch_add(1, std::memory_order_relaxed) == 0) {
    first_unsynced_ms_.store(SteadyNowMs(), std::memory_order_relaxed);
  }
  wal_size_bytes_.store(writer_.size_bytes(), std::memory_order_relaxed);
  last_lsn_metric_.store(lsn, std::memory_order_relaxed);
  return lsn;
}

void DurabilityManager::EndCommit(std::uint64_t lsn, bool applied) {
  if (replaying_) return;
  commit_mu_.unlock_shared();
  if (!applied || options_.snapshot_interval_ops == 0) return;
  const std::uint64_t n =
      ops_since_snapshot_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n != options_.snapshot_interval_ops || engine_ == nullptr) return;
  auto cut = Snapshot(engine_);
  if (!cut.ok()) {
    obs::Logger::Global().Log(
        obs::LogLevel::kWarn, "wal_auto_snapshot_failed",
        {obs::LogField::Num("at_lsn", static_cast<double>(lsn)),
         obs::LogField::Str("error", cut.status().ToString())});
  }
}

void DurabilityManager::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterCallbackCounter(
      "knnq_server_wal_appends_total", "WAL records appended.",
      [this] { return appends_total_.load(std::memory_order_relaxed); });
  registry->RegisterCallbackCounter(
      "knnq_server_wal_bytes_total", "WAL bytes appended.", [this] {
        return append_bytes_total_.load(std::memory_order_relaxed);
      });
  registry->RegisterCallbackCounter(
      "knnq_server_wal_syncs_total", "WAL fsync barriers issued.",
      [this] { return syncs_total_.load(std::memory_order_relaxed); });
  registry->RegisterCallbackCounter(
      "knnq_server_wal_snapshots_total",
      "Snapshots cut (manual, auto and baseline).",
      [this] { return snapshots_total_.load(std::memory_order_relaxed); });
  registry->RegisterCallbackCounter(
      "knnq_server_wal_replayed_records_total",
      "WAL records replayed during recovery.",
      [this] { return replayed_total_.load(std::memory_order_relaxed); });
  registry->RegisterCallbackGauge(
      "knnq_server_wal_size_bytes", "Current WAL file size.", [this] {
        return static_cast<double>(
            wal_size_bytes_.load(std::memory_order_relaxed));
      });
  registry->RegisterCallbackGauge(
      "knnq_server_wal_last_lsn", "Last assigned log sequence number.",
      [this] {
        return static_cast<double>(
            last_lsn_metric_.load(std::memory_order_relaxed));
      });
  registry->RegisterCallbackGauge(
      "knnq_server_wal_unsynced_ops",
      "Records appended but not yet fsynced (the crash-loss window).",
      [this] { return static_cast<double>(unsynced_ops()); });
  registry->RegisterCallbackGauge(
      "knnq_server_wal_fsync_lag_seconds",
      "Seconds the oldest unsynced record has waited for its fsync.",
      [this] { return fsync_lag_seconds(); });
}

double DurabilityManager::fsync_lag_seconds() const {
  if (unsynced_ops_.load(std::memory_order_relaxed) == 0) return 0.0;
  const std::uint64_t first =
      first_unsynced_ms_.load(std::memory_order_relaxed);
  if (first == 0) return 0.0;
  const std::uint64_t now = SteadyNowMs();
  return now > first ? static_cast<double>(now - first) / 1000.0 : 0.0;
}

}  // namespace knnq::durability
