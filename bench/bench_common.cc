#include "bench/bench_common.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <variant>

#include "src/common/check.h"
#include "src/data/berlinmod.h"
#include "src/data/clustered.h"
#include "src/data/uniform.h"
#include "src/lang/binder.h"
#include "src/lang/parser.h"

namespace knnq::bench {

std::size_t Scale() {
  static const std::size_t scale = [] {
    const char* env = std::getenv("KNNQ_BENCH_SCALE");
    if (env == nullptr) return std::size_t{1};
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed >= 1 ? static_cast<std::size_t>(parsed) : std::size_t{1};
  }();
  return scale;
}

BoundingBox Frame() { return BoundingBox(0, 0, 30000, 24000); }

const PointSet& Berlin(std::size_t n, std::uint64_t seed,
                       PointId first_id) {
  using Key = std::tuple<std::size_t, std::uint64_t, PointId>;
  static auto& cache = *new std::map<Key, std::unique_ptr<PointSet>>();
  auto& slot = cache[{n, seed, first_id}];
  if (slot == nullptr) {
    BerlinModOptions options;
    options.num_points = n;
    options.seed = seed;
    options.first_id = first_id;
    auto points = GenerateBerlinModSnapshot(options);
    KNNQ_CHECK_MSG(points.ok(), points.status().ToString().c_str());
    slot = std::make_unique<PointSet>(std::move(points.value()));
  }
  return *slot;
}

const PointSet& Clustered(std::size_t num_clusters,
                          std::size_t points_per_cluster,
                          std::uint64_t seed, PointId first_id) {
  using Key = std::tuple<std::size_t, std::size_t, std::uint64_t, PointId>;
  static auto& cache = *new std::map<Key, std::unique_ptr<PointSet>>();
  auto& slot = cache[{num_clusters, points_per_cluster, seed, first_id}];
  if (slot == nullptr) {
    ClusterOptions options;
    options.num_clusters = num_clusters;
    options.points_per_cluster = points_per_cluster;
    options.cluster_radius = 800.0;
    options.region = Frame();
    options.seed = seed;
    options.first_id = first_id;
    auto points = GenerateClusters(options);
    KNNQ_CHECK_MSG(points.ok(), points.status().ToString().c_str());
    slot = std::make_unique<PointSet>(std::move(points.value()));
  }
  return *slot;
}

const PointSet& Uniform(std::size_t n, std::uint64_t seed,
                        PointId first_id) {
  using Key = std::tuple<std::size_t, std::uint64_t, PointId>;
  static auto& cache = *new std::map<Key, std::unique_ptr<PointSet>>();
  auto& slot = cache[{n, seed, first_id}];
  if (slot == nullptr) {
    slot = std::make_unique<PointSet>(
        GenerateUniform(n, Frame(), seed, first_id));
  }
  return *slot;
}

void ReportExecStats(benchmark::State& state, const ExecStats& stats) {
  state.counters["blocks_scanned"] =
      static_cast<double>(stats.blocks_scanned);
  state.counters["points_compared"] =
      static_cast<double>(stats.points_compared);
  state.counters["neighborhoods"] =
      static_cast<double>(stats.neighborhoods_computed);
  state.counters["pruned"] = static_cast<double>(stats.candidates_pruned);
  state.counters["exec_wall_ms"] = stats.wall_seconds * 1e3;
}

const SpatialIndex& IndexOf(const PointSet& points, IndexType type) {
  using Key = std::pair<const PointSet*, IndexType>;
  static auto& cache = *new std::map<Key, std::unique_ptr<SpatialIndex>>();
  auto& slot = cache[{&points, type}];
  if (slot == nullptr) {
    IndexOptions options;
    options.type = type;
    auto index = BuildIndex(points, options);
    KNNQ_CHECK_MSG(index.ok(), index.status().ToString().c_str());
    slot = std::move(index.value());
  }
  return *slot;
}

Result<std::vector<QuerySpec>> BindQueryWorkload(std::string_view text,
                                                 const Catalog& catalog) {
  auto script = knnql::ParseScript(text);
  if (!script.ok()) return script.status();
  std::vector<QuerySpec> specs;
  specs.reserve(script->size());
  for (const knnql::Statement& statement : *script) {
    const auto* query = std::get_if<knnql::Query>(&statement.body);
    if (query == nullptr) {
      return knnql::ErrorAt(statement.pos,
                            "a query workload cannot hold DML statements");
    }
    auto spec = knnql::Bind(*query, &catalog);
    if (!spec.ok()) return spec.status();
    specs.push_back(std::move(spec.value()));
  }
  return specs;
}

}  // namespace knnq::bench
