// DurabilityManager: the serving tier's crash-safety subsystem, tying
// the WAL (wal.h) and snapshots (snapshot.h) to the engine's single
// write path through the WalSink hook (EngineOptions::wal).
//
// Lifecycle of a durable server (tools/knnq_cli.cpp, `serve
// --data-dir DIR`):
//
//   1. Open(options)      — read DIR/catalog.snapshot (if present) and
//                           scan DIR/wal.log's verified prefix.
//   2. SeedCatalog(&cat)  — rebuild every snapshot relation into the
//                           catalog (index type, next_id and last_lsn
//                           restored exactly).
//   3. QueryEngine engine(cat, {.wal = manager, ...});
//   4. Recover(&engine)   — replay the WAL records past the snapshot
//                           LSN through engine->ExecuteDml (the sink
//                           hands back each record's original LSN
//                           instead of re-appending), truncate any
//                           torn tail, and cut a baseline snapshot on
//                           a first boot so relations registered from
//                           --data files become recoverable.
//   5. Serve. Every applying commit calls BeginCommit (assigns the
//      next LSN, appends, applies the sync policy) and EndCommit
//      (releases the commit token; may trigger an auto snapshot per
//      --snapshot-interval-ops). The SNAPSHOT admin verb calls
//      Snapshot() directly.
//
// Concurrency: BeginCommit takes a shared "commit token" held until
// EndCommit; Snapshot takes it exclusively, so a snapshot sees no
// half-applied commit — its LSN is exactly the log tail, and the
// whole WAL truncates afterwards. LSN assignment and the append are
// done under one mutex, so file order equals LSN order.

#ifndef KNNQ_SRC_DURABILITY_DURABILITY_MANAGER_H_
#define KNNQ_SRC_DURABILITY_DURABILITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/common/status.h"
#include "src/durability/snapshot.h"
#include "src/durability/wal.h"
#include "src/engine/query_engine.h"
#include "src/index/index_factory.h"
#include "src/obs/metrics_registry.h"
#include "src/planner/catalog.h"

namespace knnq::durability {

struct DurabilityOptions {
  /// Directory holding wal.log and catalog.snapshot. Must exist.
  std::string data_dir;
  WalSyncPolicy sync = WalSyncPolicy::kAlways;
  /// kInterval: fsync every this-many appends.
  std::size_t sync_interval_ops = 64;
  /// Cut a snapshot automatically every this-many committed DML ops;
  /// 0 means only explicit SNAPSHOT verbs (and the baseline) snapshot.
  std::size_t snapshot_interval_ops = 0;
  /// Index construction parameters for rebuilding snapshot relations.
  IndexOptions index_options;
};

/// What Recover found and did — surfaced in the serve banner and the
/// crash-drill assertions.
struct RecoveryReport {
  bool from_snapshot = false;
  std::uint64_t snapshot_lsn = 0;
  std::uint64_t replayed_records = 0;
  /// True when the WAL had a torn/corrupt tail that was dropped;
  /// `wal_tail_error` says where and why.
  bool wal_truncated = false;
  std::string wal_tail_error;
  /// The LSN the engine is at after recovery.
  std::uint64_t last_lsn = 0;
};

class DurabilityManager : public WalSink {
 public:
  /// Reads the snapshot and scans the WAL. Fails on I/O errors and on
  /// an unreadable snapshot (a torn WAL tail is NOT an error; Recover
  /// truncates it).
  static Result<std::unique_ptr<DurabilityManager>> Open(
      DurabilityOptions options);

  /// Rebuilds every snapshot relation into `catalog`. Call between
  /// Open and engine construction, on a catalog with no colliding
  /// names.
  Status SeedCatalog(Catalog* catalog);

  /// Replays the WAL tail through `engine` (whose options.wal must be
  /// this manager), truncates any torn tail, opens the writer, and
  /// cuts a baseline snapshot when none existed. Must be called once,
  /// before serving starts.
  Result<RecoveryReport> Recover(QueryEngine* engine);

  /// Cuts a snapshot of `engine`'s catalog at the current log tail
  /// and truncates the WAL. Quiesces commits for the duration. The
  /// SNAPSHOT admin verb and the auto-snapshot trigger both land here.
  /// Returns the snapshot's LSN.
  Result<std::uint64_t> Snapshot(QueryEngine* engine);

  /// Registers knnq_server_wal_* metrics (appends, bytes, syncs,
  /// snapshots, replayed records, current size, last LSN, unsynced
  /// ops, fsync lag).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// Appended-but-not-yet-fsynced records (the crash-loss window under
  /// --wal-sync interval/none; always 0 under the default `always`).
  std::uint64_t unsynced_ops() const {
    return unsynced_ops_.load(std::memory_order_relaxed);
  }

  /// Seconds the OLDEST unsynced record has been waiting for its
  /// fsync barrier; 0 when everything durable is on disk.
  double fsync_lag_seconds() const;

  /// False once an append has failed (disk full, I/O error): commits
  /// can no longer be made durable, so /readyz reports not-ready.
  bool writable() const {
    return writer_open_.load(std::memory_order_relaxed) &&
           !append_failed_.load(std::memory_order_relaxed);
  }

  /// True when a snapshot existed at Open time (serve uses this to
  /// decide whether --data seeds or the snapshot does).
  bool recovered_from_snapshot() const { return have_snapshot_; }

  std::string wal_path() const { return options_.data_dir + "/wal.log"; }
  std::string snapshot_path() const {
    return options_.data_dir + "/catalog.snapshot";
  }

  // WalSink contract (called by the engine inside its write path).
  Result<std::uint64_t> BeginCommit(const DmlRequest& request) override;
  void EndCommit(std::uint64_t lsn, bool applied) override;

 private:
  explicit DurabilityManager(DurabilityOptions options)
      : options_(std::move(options)) {}

  DurabilityOptions options_;

  /// Loaded at Open.
  SnapshotImage snapshot_;
  bool have_snapshot_ = false;
  WalScan scan_;

  /// Replay mode: BeginCommit returns replay_lsn_ without appending.
  /// Only toggled by Recover, which runs single-threaded before the
  /// server accepts connections.
  bool replaying_ = false;
  std::uint64_t replay_lsn_ = 0;

  /// The engine EndCommit's auto-snapshot trigger snapshots. Set by
  /// Recover.
  QueryEngine* engine_ = nullptr;

  /// Commit token: shared from BeginCommit to EndCommit, exclusive
  /// across Snapshot.
  std::shared_mutex commit_mu_;
  /// Serializes LSN assignment with the append (file order == LSN
  /// order) and guards writer_ and last_lsn_.
  std::mutex wal_mu_;
  WalWriter writer_;
  std::uint64_t last_lsn_ = 0;

  /// Committed ops since the last snapshot, driving the auto trigger.
  std::atomic<std::uint64_t> ops_since_snapshot_{0};

  // Metric mirrors (relaxed atomics; scraped by callbacks).
  std::atomic<std::uint64_t> appends_total_{0};
  std::atomic<std::uint64_t> append_bytes_total_{0};
  std::atomic<std::uint64_t> syncs_total_{0};
  std::atomic<std::uint64_t> snapshots_total_{0};
  std::atomic<std::uint64_t> replayed_total_{0};
  std::atomic<std::uint64_t> wal_size_bytes_{0};
  std::atomic<std::uint64_t> last_lsn_metric_{0};

  /// Sync-debt tracking: records appended since the writer's last
  /// fsync barrier, and (while nonzero) the steady-clock ms at which
  /// the oldest of them was appended.
  std::atomic<std::uint64_t> unsynced_ops_{0};
  std::atomic<std::uint64_t> first_unsynced_ms_{0};

  /// Readiness: the writer opened (Recover ran) and no append failed.
  std::atomic<bool> writer_open_{false};
  std::atomic<bool> append_failed_{false};
};

}  // namespace knnq::durability

#endif  // KNNQ_SRC_DURABILITY_DURABILITY_MANAGER_H_
