#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/bbox.h"
#include "src/common/text_parse.h"
#include "src/data/berlinmod.h"
#include "src/data/clustered.h"
#include "src/data/dataset_io.h"
#include "src/data/uniform.h"

namespace perfbench {

using knnq::Point;
using knnq::PointSet;
using knnq::Result;
using knnq::Status;

namespace {

// The map every generator fills (the CLI's `generate` frame).
constexpr double kWidth = 30000;
constexpr double kHeight = 24000;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Uniform(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

double Real(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// A focal point away from the map edge, where per-statement cost
/// depends least on the draw.
std::string Focal(std::mt19937_64& rng) {
  return "AT(" + Coord(Real(rng, 0.1 * kWidth, 0.9 * kWidth)) + ", " +
         Coord(Real(rng, 0.1 * kHeight, 0.9 * kHeight)) + ")";
}

std::string TwoSelects(std::mt19937_64& rng, const char* relation) {
  const double x = Real(rng, 0.1 * kWidth, 0.9 * kWidth);
  const double y = Real(rng, 0.1 * kHeight, 0.9 * kHeight);
  const double dx = Real(rng, -300, 300);
  const double dy = Real(rng, -300, 300);
  return std::string("SELECT KNN(") + relation + ", " +
         std::to_string(Uniform(rng, 5, 15)) + ", AT(" + Coord(x) + ", " +
         Coord(y) + ")) INTERSECT KNN(" + relation + ", " +
         std::to_string(Uniform(rng, 10, 30)) + ", AT(" + Coord(x + dx) +
         ", " + Coord(y + dy) + "));";
}

}  // namespace

std::string Coord(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

Result<std::map<std::string, std::string>> WriteCatalog(
    std::uint64_t seed, const std::string& dir,
    std::map<std::string, PointSet>* points) {
  std::map<std::string, std::string> files;
  for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
    const RelationSpec& spec = kCatalog[i];
    const std::string kind = spec.kind;
    const std::uint64_t relation_seed = Mix(seed, i);
    PointSet generated;
    if (kind == "uniform") {
      generated = knnq::GenerateUniform(
          spec.n, knnq::BoundingBox(0, 0, kWidth, kHeight), relation_seed);
    } else if (kind == "berlin") {
      knnq::BerlinModOptions options;
      options.num_points = spec.n;
      options.seed = relation_seed;
      auto made = knnq::GenerateBerlinModSnapshot(options);
      if (!made.ok()) return made.status();
      generated = std::move(*made);
    } else {
      knnq::ClusterOptions options;
      options.num_clusters = 8;
      options.points_per_cluster = spec.n / options.num_clusters;
      options.cluster_radius = 800.0;
      options.region = knnq::BoundingBox(0, 0, kWidth, kHeight);
      options.seed = relation_seed;
      auto made = knnq::GenerateClusters(options);
      if (!made.ok()) return made.status();
      generated = std::move(*made);
    }
    const std::string path = dir + "/" + std::string(spec.name) + ".csv";
    if (Status s = knnq::SaveCsv(generated, path); !s.ok()) return s;
    files[spec.name] = path;
    (*points)[spec.name] = std::move(generated);
  }
  return files;
}

std::string PointLookupStatement(std::mt19937_64& rng, std::uint64_t i) {
  if (i % 2 == 0) return TwoSelects(rng, "vehicles");
  return "JOIN KNN(vehicles, stations, " + std::to_string(Uniform(rng, 2, 3)) +
         ") WHERE OUTER IN KNN(vehicles, " +
         std::to_string(Uniform(rng, 5, 15)) + ", " + Focal(rng) + ");";
}

// ------------------------------------------------------ join_analytics

JoinAnalytics::JoinAnalytics(std::uint64_t seed, StatementPool* pool) {
  std::mt19937_64 rng(Mix(seed, 100));
  // Shared hot foci: statements at one focus share join neighborhoods.
  constexpr std::size_t kFoci = 48;
  std::vector<std::string> foci;
  std::vector<std::pair<double, double>> centers;
  for (std::size_t i = 0; i < kFoci; ++i) {
    const double x = Real(rng, 0.1 * kWidth, 0.9 * kWidth);
    const double y = Real(rng, 0.1 * kHeight, 0.9 * kHeight);
    centers.emplace_back(x, y);
    foci.push_back("AT(" + Coord(x) + ", " + Coord(y) + ")");
  }
  const auto range = [&](std::size_t f, double half) {
    const auto [x, y] = centers[f];
    return "RANGE(" + Coord(x - half) + ", " + Coord(y - half) + ", " +
           Coord(x + half) + ", " + Coord(y + half) + ")";
  };
  shapes_.resize(6);
  for (std::size_t f = 0; f < kFoci; ++f) {
    // §3 select-inner-join: outer pois (< counting_outer_cutoff) plans
    // Counting, outer sites (>= cutoff) plans Block-Marking.
    shapes_[0].statements.push_back(pool->Add(
        "JOIN KNN(pois, sites, 3) WHERE INNER IN KNN(sites, " +
        std::to_string(60 + 30 * (f % 3)) + ", " + foci[f] + ");"));
    shapes_[1].statements.push_back(pool->Add(
        "JOIN KNN(sites, pois, 3) WHERE INNER IN KNN(pois, " +
        std::to_string(40 + 20 * (f % 3)) + ", " + foci[f] + ");"));
    // §3 range-inner-join, both algorithms.
    shapes_[2].statements.push_back(
        pool->Add("JOIN KNN(pois, sites, 3) WHERE INNER IN " +
                  range(f, 500 + 100 * (f % 3)) + ";"));
    shapes_[3].statements.push_back(
        pool->Add("JOIN KNN(sites, pois, 3) WHERE INNER IN " +
                  range(f, 400 + 100 * (f % 3)) + ";"));
  }
  // §4.1 unchained and §4.2 chained joins: whole-relation statements
  // whose only parameters are the two k.
  for (std::size_t ka = 2; ka <= 3; ++ka) {
    for (std::size_t kc = 2; kc <= 3; ++kc) {
      shapes_[4].statements.push_back(pool->Add(
          "JOIN KNN(depots, sites, " + std::to_string(ka) +
          ") INTERSECT KNN(stations, sites, " + std::to_string(kc) + ");"));
      shapes_[5].statements.push_back(pool->Add(
          "JOIN KNN(depots, stations, " + std::to_string(ka - 1) +
          ") THEN KNN(stations, pois, " + std::to_string(kc) + ");"));
    }
  }
  // Zipf(1) ranks over a shape's statements; the rank order is the
  // (seeded) generation order.
  double total = 0;
  for (std::size_t r = 1; r <= kFoci; ++r) total += 1.0 / r;
  double acc = 0;
  for (std::size_t r = 1; r <= kFoci; ++r) {
    acc += 1.0 / r / total;
    zipf_cdf_.push_back(acc);
  }
  for (std::size_t c = 0; c < 16; ++c) {
    rngs_.emplace_back(Mix(seed, 200 + c));
    counters_.push_back(c);
  }
}

Job JoinAnalytics::Next(std::size_t conn) {
  std::mt19937_64& rng = rngs_[conn % rngs_.size()];
  // A fixed shape rotation keeps every shape's share seed-independent.
  const Shape& shape = shapes_[counters_[conn % counters_.size()]++ %
                               shapes_.size()];
  std::size_t pick;
  if (shape.statements.size() == zipf_cdf_.size()) {
    const double u = Real(rng, 0, 1);
    pick = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    pick = std::min(pick, shape.statements.size() - 1);
  } else {
    pick = Uniform(rng, 0, shape.statements.size() - 1);
  }
  return Job{shape.statements[pick], 1, false};
}

// ------------------------------------------------------ moving_objects

MovingObjects::MovingObjects(std::uint64_t seed, const PointSet& vehicles,
                             StatementPool* pool)
    : live_(vehicles),
      pool_(pool),
      writer_rng_(Mix(seed, 300)),
      seed_(seed) {
  for (const Point& p : vehicles) next_id_ = std::max(next_id_, p.id + 1);
  for (std::size_t c = 0; c < 16; ++c) {
    reader_rngs_.emplace_back(Mix(seed, 400 + c));
    reader_counters_.push_back(c);
  }
}

Job MovingObjects::NextRead(std::size_t conn) {
  std::mt19937_64& rng = reader_rngs_[conn % reader_rngs_.size()];
  const std::uint64_t i = reader_counters_[conn % reader_counters_.size()]++;
  std::string text =
      i % 2 == 0
          ? TwoSelects(rng, "vehicles")
          : "JOIN KNN(stations, vehicles, 3) WHERE INNER IN KNN(vehicles, " +
                std::to_string(Uniform(rng, 20, 40)) + ", " + Focal(rng) +
                ");";
  return Job{pool_->Add(std::move(text)), 1, false};
}

Job MovingObjects::NextMove() {
  Point& vehicle = live_[Uniform(writer_rng_, 0, live_.size() - 1)];
  const std::string x = Coord(std::clamp(
      vehicle.x + Real(writer_rng_, -150, 150), 0.0, kWidth));
  const std::string y = Coord(std::clamp(
      vehicle.y + Real(writer_rng_, -150, 150), 0.0, kHeight));
  std::string text = "DELETE FROM vehicles WHERE ID = " +
                     std::to_string(vehicle.id) +
                     "; INSERT INTO vehicles VALUES (" + x + ", " + y + ");";
  vehicle.id = next_id_++;
  vehicle.x = knnq::ParseDouble(x).value();
  vehicle.y = knnq::ParseDouble(y).value();
  return Job{pool_->Add(std::move(text)), 2, true};
}

std::vector<std::string> MovingObjects::CheckStatements() const {
  std::mt19937_64 rng(Mix(seed_, 500));
  std::vector<std::string> checks;
  for (std::size_t i = 0; i < 40; ++i) {
    checks.push_back(
        i % 2 == 0
            ? TwoSelects(rng, "vehicles")
            : "JOIN KNN(stations, vehicles, 3) WHERE INNER IN KNN(vehicles, " +
                  std::to_string(Uniform(rng, 20, 40)) + ", " + Focal(rng) +
                  ");");
  }
  return checks;
}

}  // namespace perfbench
