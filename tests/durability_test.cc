// Durability tests: WAL encode/scan round trips, the corruption
// matrix (torn tail, flipped CRC byte, non-monotone LSNs, bad magic —
// each must recover to the last good prefix with a positioned error,
// never crash or silently diverge), snapshot round trips, and the
// recovery differentials:
//
//   * graceful restart — serve, mutate, reopen the data dir, and every
//     query shape must answer byte-identically to a twin engine that
//     applied the same ops in memory;
//   * kill-mid-churn — fork a child that churns DML into a durable
//     engine, SIGKILL it mid-write, recover in the parent, and compare
//     the recovered engine against a twin replaying ops 1..last_lsn.
//     Single-writer determinism makes the twin exact: generated op k
//     commits as LSN k, so recovery to LSN L means state(ops 1..L).

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/data/dataset_io.h"
#include "src/durability/durability_manager.h"
#include "src/durability/snapshot.h"
#include "src/durability/wal.h"
#include "src/engine/query_engine.h"
#include "src/lang/parser.h"
#include "src/lang/unparser.h"
#include "src/planner/catalog.h"
#include "src/server/wire.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

using durability::DurabilityManager;
using durability::DurabilityOptions;
using durability::EncodeWalRecord;
using durability::ReadSnapshot;
using durability::ScanWal;
using durability::SnapshotImage;
using durability::SnapshotRelation;
using durability::WalSyncPolicy;
using durability::WalWriter;
using durability::WriteSnapshot;

// ------------------------------------------------------------- helpers

/// A fresh per-test data dir under the gtest temp root.
std::string FreshDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/knnq_dur_" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/catalog.snapshot").c_str());
  ::rmdir(dir.c_str());
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  return dir;
}

std::string SlurpFile(const std::string& path) {
  auto text = ReadTextFile(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Deterministic churn: op k is a pure function of k, so a twin engine
/// replaying ops 1..L reproduces exactly the state a recovery to LSN L
/// must have. Mostly inserts with auto-assigned ids; every 7th op
/// erases a low id (absent ids affect 0 rows, which is fine — the WAL
/// replays the outcome either way).
DmlRequest ChurnOp(std::uint64_t k) {
  std::uint64_t s = k * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  const auto next = [&s] {
    s ^= s >> 27;
    s *= 0x94D049BB133111EBull;
    s ^= s >> 31;
    return s;
  };
  const std::string relation = (next() % 2 == 0) ? "a" : "b";
  if (k % 7 == 0) {
    return DmlRequest::MutateOps(
        relation,
        {MutationOp::Erase(static_cast<PointId>(next() % 400))});
  }
  const double x = static_cast<double>(next() % 100000) / 100.0;
  const double y = static_cast<double>(next() % 80000) / 100.0;
  std::vector<MutationOp> ops;
  ops.push_back(MutationOp::Insert(x, y));
  if (k % 5 == 0) ops.push_back(MutationOp::Insert(y, x));
  return DmlRequest::MutateOps(relation, ops);
}

/// The six query shapes of the suite's differential harnesses, over
/// the churned relations a and b (and static c for the three-relation
/// shapes).
const char* kQueryShapes[] = {
    "SELECT KNN(a, 5, AT(120, 100)) INTERSECT KNN(a, 9, AT(150, 130));",
    "JOIN KNN(a, b, 3) WHERE INNER IN KNN(b, 10, AT(100, 100));",
    "JOIN KNN(a, b, 3) WHERE OUTER IN KNN(a, 6, AT(140, 90));",
    "JOIN KNN(a, b, 2) WHERE INNER IN RANGE(0, 0, 500, 400);",
    "JOIN KNN(a, b, 2) THEN KNN(b, c, 3);",
    "JOIN KNN(a, b, 3) INTERSECT KNN(c, b, 2);",
};

/// Runs one KNNQL query and renders the full wire record — the
/// byte-compare currency of the differentials.
std::string QueryRecord(QueryEngine& engine, const std::string& text) {
  const auto script = knnql::ParseScript(text);
  EXPECT_TRUE(script.ok()) << text;
  if (!script.ok() || script->empty()) return "<parse error>";
  const auto* query =
      std::get_if<knnql::Query>(&script->front().body);
  EXPECT_NE(query, nullptr) << text;
  if (query == nullptr) return "<not a query>";
  auto spec = engine.BindQuery(*query);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString() << "\n " << text;
  if (!spec.ok()) return "<bind error>";
  const EngineResult run = engine.Run(*spec);
  EXPECT_TRUE(run.ok()) << run.status.ToString() << "\n " << text;
  if (!run.ok()) return "<run error>";
  return server::JsonQueryRecord(knnql::Unparse(*spec), run);
}

/// The wire record carries volatile stats (wall time); strip them the
/// way server_test does before comparing.
std::string StripStats(const std::string& record) {
  const std::size_t begin = record.find("\"stats\": {");
  if (begin == std::string::npos) return record;
  const std::size_t end = record.find('}', begin);
  if (end == std::string::npos) return record;
  return record.substr(0, begin) + record.substr(end + 1);
}

void ExpectEnginesAgree(QueryEngine& recovered, QueryEngine& twin) {
  for (const char* shape : kQueryShapes) {
    SCOPED_TRACE(shape);
    EXPECT_EQ(StripStats(QueryRecord(recovered, shape)),
              StripStats(QueryRecord(twin, shape)));
  }
}

Catalog SeedRelations() {
  Catalog catalog;
  EXPECT_TRUE(catalog.AddRelation("a", testing::MakeCity(600, 11)).ok());
  EXPECT_TRUE(
      catalog.AddRelation("b", testing::MakeUniform(500, 12)).ok());
  EXPECT_TRUE(
      catalog.AddRelation("c", testing::MakeClustered(5, 80, 13)).ok());
  return catalog;
}

EngineOptions DurableEngineOptions(WalSink* wal) {
  EngineOptions options;
  options.num_threads = 1;
  options.wal = wal;
  return options;
}

DmlRequest SampleMutate(std::uint64_t salt) {
  return DmlRequest::MutateOps(
      "a", {MutationOp::Insert(1.5 + static_cast<double>(salt), 2.25),
            MutationOp::Erase(static_cast<PointId>(salt))});
}

// --------------------------------------------------------- WAL basics

TEST(WalTest, AppendScanRoundTrip) {
  const std::string dir = FreshDataDir("roundtrip");
  const std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path, {}, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(1, SampleMutate(7)).ok());
    PointSet loaded;
    loaded.push_back({.id = 4, .x = 0.5, .y = -1.25});
    loaded.push_back({.id = 9, .x = 100.0, .y = 200.0});
    ASSERT_TRUE(
        writer->Append(2, DmlRequest::Load("b", std::move(loaded))).ok());
  }
  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->truncated);
  EXPECT_EQ(scan->last_lsn, 2u);
  ASSERT_EQ(scan->records.size(), 2u);

  const DmlRequest& mutate = scan->records[0].request;
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(mutate.kind, DmlRequest::Kind::kMutate);
  EXPECT_EQ(mutate.relation, "a");
  ASSERT_EQ(mutate.ops.size(), 2u);
  EXPECT_EQ(mutate.ops[0].kind, MutationOp::Kind::kInsert);
  EXPECT_EQ(mutate.ops[0].point.x, 8.5);
  EXPECT_EQ(mutate.ops[1].kind, MutationOp::Kind::kErase);
  EXPECT_EQ(mutate.ops[1].erase_id, 7);

  const DmlRequest& load = scan->records[1].request;
  EXPECT_EQ(scan->records[1].lsn, 2u);
  EXPECT_EQ(load.kind, DmlRequest::Kind::kLoad);
  EXPECT_EQ(load.relation, "b");
  ASSERT_EQ(load.points.size(), 2u);
  EXPECT_EQ(load.points[0].id, 4);
  EXPECT_EQ(load.points[0].y, -1.25);
  EXPECT_EQ(load.points[1].x, 100.0);
}

TEST(WalTest, TornTailTruncatesToGoodPrefixAndLogStaysAppendable) {
  const std::string dir = FreshDataDir("torn");
  const std::string path = dir + "/wal.log";
  std::uint64_t two_records = 0;
  {
    auto writer = WalWriter::Open(path, {}, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, SampleMutate(1)).ok());
    ASSERT_TRUE(writer->Append(2, SampleMutate(2)).ok());
    two_records = writer->size_bytes();
    ASSERT_TRUE(writer->Append(3, SampleMutate(3)).ok());
  }
  // Crash mid-write: the last record loses its tail.
  const std::string bytes = SlurpFile(path);
  ASSERT_GT(bytes.size(), two_records + 5);
  DumpFile(path, bytes.substr(0, two_records + 5));

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->last_lsn, 2u);
  EXPECT_EQ(scan->good_bytes, two_records);
  EXPECT_NE(scan->tail_error.find("torn record"), std::string::npos)
      << scan->tail_error;
  EXPECT_NE(scan->tail_error.find(std::to_string(two_records)),
            std::string::npos)
      << "tail_error should name the byte offset: " << scan->tail_error;

  // Recovery reopens over the good prefix and keeps appending.
  auto writer = WalWriter::Open(path, {}, scan->good_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(3, SampleMutate(33)).ok());
  auto rescan = ScanWal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->truncated);
  EXPECT_EQ(rescan->records.size(), 3u);
  EXPECT_EQ(rescan->last_lsn, 3u);
}

TEST(WalTest, FlippedCrcByteStopsTheScanWithAPositionedError) {
  const std::string dir = FreshDataDir("crcflip");
  const std::string path = dir + "/wal.log";
  std::uint64_t one_record = 0;
  {
    auto writer = WalWriter::Open(path, {}, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, SampleMutate(1)).ok());
    one_record = writer->size_bytes();
    ASSERT_TRUE(writer->Append(2, SampleMutate(2)).ok());
    ASSERT_TRUE(writer->Append(3, SampleMutate(3)).ok());
  }
  std::string bytes = SlurpFile(path);
  // Flip one byte inside record 2's body (offset +8 skips its header).
  bytes[one_record + 12] = static_cast<char>(bytes[one_record + 12] ^ 0x40);
  DumpFile(path, bytes);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->last_lsn, 1u);
  EXPECT_EQ(scan->good_bytes, one_record);
  EXPECT_NE(scan->tail_error.find("CRC mismatch"), std::string::npos)
      << scan->tail_error;
  EXPECT_NE(scan->tail_error.find(std::to_string(one_record)),
            std::string::npos)
      << scan->tail_error;
}

TEST(WalTest, NonMonotoneLsnStopsTheScan) {
  const std::string dir = FreshDataDir("duplsn");
  const std::string path = dir + "/wal.log";
  std::string bytes(durability::kWalMagic);
  bytes += EncodeWalRecord(1, SampleMutate(1));
  bytes += EncodeWalRecord(5, SampleMutate(2));
  bytes += EncodeWalRecord(5, SampleMutate(3));  // Duplicate LSN.
  DumpFile(path, bytes);

  auto scan = ScanWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->last_lsn, 5u);
  EXPECT_NE(scan->tail_error.find("not greater"), std::string::npos)
      << scan->tail_error;
}

TEST(WalTest, BadMagicIsARefusalNotACrash) {
  const std::string dir = FreshDataDir("badmagic");
  const std::string path = dir + "/wal.log";
  DumpFile(path, "definitely not a WAL file");
  auto scan = ScanWal(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().message().find("bad magic"), std::string::npos)
      << scan.status().ToString();
  EXPECT_NE(scan.status().message().find(path), std::string::npos);
}

// ---------------------------------------------------------- snapshots

TEST(SnapshotTest, RoundTripPreservesEveryField) {
  const std::string dir = FreshDataDir("snap");
  const std::string path = dir + "/catalog.snapshot";
  SnapshotImage image;
  image.lsn = 42;
  SnapshotRelation rel;
  rel.name = "houses";
  rel.type = IndexType::kRTree;
  rel.next_id = 901;
  rel.last_lsn = 40;
  rel.points.push_back({.id = 1, .x = 0.125, .y = -3.5});
  rel.points.push_back({.id = 900, .x = 17.0, .y = 0.0});
  image.relations.push_back(rel);
  ASSERT_TRUE(WriteSnapshot(path, image).ok());

  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 42u);
  ASSERT_EQ(loaded->relations.size(), 1u);
  const SnapshotRelation& out = loaded->relations[0];
  EXPECT_EQ(out.name, "houses");
  EXPECT_EQ(out.type, IndexType::kRTree);
  EXPECT_EQ(out.next_id, 901);
  EXPECT_EQ(out.last_lsn, 40u);
  ASSERT_EQ(out.points.size(), 2u);
  EXPECT_EQ(out.points[0].x, 0.125);
  EXPECT_EQ(out.points[1].id, 900);
}

TEST(SnapshotTest, CorruptionIsRefusedNamingTheFile) {
  const std::string dir = FreshDataDir("snapcorrupt");
  const std::string path = dir + "/catalog.snapshot";
  SnapshotImage image;
  image.lsn = 7;
  ASSERT_TRUE(WriteSnapshot(path, image).ok());
  std::string bytes = SlurpFile(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  DumpFile(path, bytes);
  auto loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
}

// ------------------------------------------- recovery differentials

/// Applies ops 1..upto to a WAL-free twin over the same seed catalog.
std::unique_ptr<QueryEngine> BuildTwin(std::uint64_t upto) {
  auto twin = std::make_unique<QueryEngine>(SeedRelations(),
                                            DurableEngineOptions(nullptr));
  for (std::uint64_t k = 1; k <= upto; ++k) {
    (void)twin->ExecuteDml(ChurnOp(k));
  }
  return twin;
}

TEST(RecoveryDifferentialTest, GracefulRestartMatchesTwin) {
  const std::string dir = FreshDataDir("graceful");
  constexpr std::uint64_t kOps = 48;

  DurabilityOptions options;
  options.data_dir = dir;
  options.sync = WalSyncPolicy::kNone;  // Graceful close needs no fsync.
  {
    auto manager = DurabilityManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    QueryEngine engine(SeedRelations(),
                       DurableEngineOptions(manager->get()));
    auto report = (*manager)->Recover(&engine);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->from_snapshot);  // First boot: baseline cut.
    for (std::uint64_t k = 1; k <= kOps; ++k) {
      (void)engine.ExecuteDml(ChurnOp(k));
    }
    // Mid-run manual snapshot: recovery must compose snapshot + tail.
    auto cut = (*manager)->Snapshot(&engine);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    EXPECT_EQ(*cut, kOps);
    for (std::uint64_t k = kOps + 1; k <= kOps + 16; ++k) {
      (void)engine.ExecuteDml(ChurnOp(k));
    }
  }

  auto manager = DurabilityManager::Open(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  Catalog recovered_catalog;
  ASSERT_TRUE((*manager)->SeedCatalog(&recovered_catalog).ok());
  QueryEngine recovered(std::move(recovered_catalog),
                        DurableEngineOptions(manager->get()));
  auto report = (*manager)->Recover(&recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->from_snapshot);
  EXPECT_EQ(report->last_lsn, kOps + 16);
  EXPECT_FALSE(report->wal_truncated);

  auto twin = BuildTwin(kOps + 16);
  ExpectEnginesAgree(recovered, *twin);
}

TEST(RecoveryDifferentialTest, KillMidChurnMatchesTwin) {
  const std::string dir = FreshDataDir("kill");
  DurabilityOptions options;
  options.data_dir = dir;
  options.sync = WalSyncPolicy::kAlways;

  // The child churns; the parent SIGKILLs it mid-write. fork() happens
  // before this test constructs any engine, so the parent is
  // effectively single-threaded at the fork point.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto manager = DurabilityManager::Open(options);
    if (!manager.ok()) _exit(2);
    QueryEngine engine(SeedRelations(),
                       DurableEngineOptions(manager->get()));
    if (!(*manager)->Recover(&engine).ok()) _exit(3);
    for (std::uint64_t k = 1; k <= 200000; ++k) {
      (void)engine.ExecuteDml(ChurnOp(k));
    }
    _exit(0);  // Outlived the drill; recovery still must work.
  }
  // Let the churn commit some writes, then pull the plug.
  ::usleep(150 * 1000);
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus) || WIFEXITED(wstatus));
  if (WIFEXITED(wstatus)) {
    ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child setup failed";
  }

  auto manager = DurabilityManager::Open(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  Catalog recovered_catalog;
  ASSERT_TRUE((*manager)->SeedCatalog(&recovered_catalog).ok());
  QueryEngine recovered(std::move(recovered_catalog),
                        DurableEngineOptions(manager->get()));
  auto report = (*manager)->Recover(&recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->from_snapshot);  // The baseline from first boot.
  ASSERT_GT(report->last_lsn, 0u) << "kill fired before any commit";

  // Single writer: generated op k committed as LSN k, so the twin
  // replays exactly ops 1..last_lsn.
  auto twin = BuildTwin(report->last_lsn);
  ExpectEnginesAgree(recovered, *twin);
}

// ------------------------------------------------------ auto-snapshot

TEST(DurabilityManagerTest, AutoSnapshotCutsAtTheIntervalAndRecovers) {
  const std::string dir = FreshDataDir("autosnap");
  DurabilityOptions options;
  options.data_dir = dir;
  options.sync = WalSyncPolicy::kNone;
  options.snapshot_interval_ops = 5;
  {
    auto manager = DurabilityManager::Open(options);
    ASSERT_TRUE(manager.ok());
    QueryEngine engine(SeedRelations(),
                       DurableEngineOptions(manager->get()));
    ASSERT_TRUE((*manager)->Recover(&engine).ok());
    for (std::uint64_t k = 1; k <= 12; ++k) {
      (void)engine.ExecuteDml(ChurnOp(k));
    }
  }
  // 12 ops at interval 5: the second auto cut landed at LSN 10, and
  // the WAL holds only the two ops after it.
  auto snapshot = ReadSnapshot(dir + "/catalog.snapshot");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->lsn, 10u);
  auto scan = ScanWal(dir + "/wal.log");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->last_lsn, 12u);

  auto manager = DurabilityManager::Open(options);
  ASSERT_TRUE(manager.ok());
  Catalog catalog;
  ASSERT_TRUE((*manager)->SeedCatalog(&catalog).ok());
  QueryEngine recovered(std::move(catalog),
                        DurableEngineOptions(manager->get()));
  auto report = (*manager)->Recover(&recovered);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->snapshot_lsn, 10u);
  EXPECT_EQ(report->replayed_records, 2u);
  EXPECT_EQ(report->last_lsn, 12u);
  auto twin = BuildTwin(12);
  ExpectEnginesAgree(recovered, *twin);
}

}  // namespace
}  // namespace knnq
