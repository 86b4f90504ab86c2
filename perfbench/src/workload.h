// Seeded inputs of the three workloads: the catalog (written as the
// id,x,y CSVs the server loads) and the KNNQL statements each load
// generator connection sends. The program under test sees only these
// files and statement texts.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/common/point.h"
#include "src/common/status.h"

namespace perfbench {

/// One generated relation of the fixed catalog.
struct RelationSpec {
  const char* name;
  const char* kind;  // "uniform", "berlin" or "clusters" (8 clusters).
  std::size_t n;
};

/// The catalog every workload loads: `sites` and `pois` uniform, either
/// side of the planner's counting_outer_cutoff (65,536); `vehicles` and
/// `stations` BerlinMOD; `depots` 8 clusters of 250.
inline constexpr RelationSpec kCatalog[] = {
    {"sites", "uniform", 100000},   {"pois", "uniform", 40000},
    {"vehicles", "berlin", 50000},  {"stations", "berlin", 5000},
    {"depots", "clusters", 2000},
};

/// Generates every kCatalog relation from `seed` and writes
/// `<dir>/<name>.csv`. Returns the relation name -> CSV path map.
knnq::Result<std::map<std::string, std::string>> WriteCatalog(
    std::uint64_t seed, const std::string& dir,
    std::map<std::string, knnq::PointSet>* points);

/// What one request is. Reads are statements from a pool of texts
/// (`statement` indexes it); a move is a vehicle's DELETE + INSERT
/// pair, sent pipelined on the writer connection.
struct Job {
  std::uint32_t statement = 0;
  std::uint32_t statements = 1;  // Statements in the text (responses).
  bool write = false;
};

/// The statement texts every Job indexes, owned by the workload.
class StatementPool {
 public:
  std::uint32_t Add(std::string text) {
    texts_.push_back(std::move(text));
    return static_cast<std::uint32_t>(texts_.size() - 1);
  }
  const std::string& operator[](std::uint32_t i) const { return texts_[i]; }

 private:
  std::vector<std::string> texts_;
};

/// Formats a coordinate the way every generated statement does: two
/// decimals, so server and reference parse identical text.
std::string Coord(double v);

/// point_lookup: a fresh seeded cheap statement (two-kNN-select or a
/// kNN-select pushed into a kNN-join's outer), round-robin over shapes.
std::string PointLookupStatement(std::mt19937_64& rng, std::uint64_t i);

/// join_analytics: statements drawn from a finite pool of distinct
/// select-inner, range-inner, unchained and chained joins, Zipf-skewed
/// over seeded foci so statements repeat and share neighborhoods.
class JoinAnalytics {
 public:
  JoinAnalytics(std::uint64_t seed, StatementPool* pool);
  /// The next statement of connection `conn`'s deterministic stream.
  Job Next(std::size_t conn);

 private:
  struct Shape {
    std::vector<std::uint32_t> statements;  // Pool indexes.
  };
  std::vector<Shape> shapes_;
  std::vector<double> zipf_cdf_;  // Over a shape's statements.
  std::vector<std::mt19937_64> rngs_;
  std::vector<std::uint64_t> counters_;
};

/// moving_objects: closed-loop readers (two-kNN-selects and
/// select-inner-joins over the written relation) beside one writer
/// moving vehicles. Tracks each vehicle's current id and position so
/// every move deletes a live id; ids are assigned by the engine in
/// commit order, so the writer predicts them exactly.
class MovingObjects {
 public:
  MovingObjects(std::uint64_t seed, const knnq::PointSet& vehicles,
                StatementPool* pool);
  Job NextRead(std::size_t conn);
  Job NextMove();
  /// Fixed check statements compared after the restart.
  std::vector<std::string> CheckStatements() const;

 private:
  std::vector<knnq::Point> live_;  // Current id + position per vehicle.
  knnq::PointId next_id_ = 0;
  StatementPool* pool_;
  std::mt19937_64 writer_rng_;
  std::vector<std::mt19937_64> reader_rngs_;
  std::vector<std::uint64_t> reader_counters_;
  std::uint64_t seed_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
