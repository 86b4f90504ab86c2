// Shared helpers for the knnq test suite: dataset builders, index
// construction shortcuts, independent brute-force reference
// implementations of every query class, block scan checks, key
// readers for the JSON and Prometheus renderings of metrics, and the
// loopback socket client of the serving tests. The
// references deliberately use only BruteForceKnn over raw point sets -
// no index, no locality, no block pruning - so agreement with the
// optimized evaluators is meaningful evidence of correctness.

#ifndef KNNQ_TESTS_TEST_UTIL_H_
#define KNNQ_TESTS_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/point.h"
#include "src/common/random.h"
#include "src/core/result_types.h"
#include "src/core/two_selects.h"
#include "src/data/berlinmod.h"
#include "src/data/clustered.h"
#include "src/data/uniform.h"
#include "src/index/index_factory.h"
#include "src/index/knn_searcher.h"
#include "src/index/spatial_index.h"

namespace knnq::testing {

/// Standard test frame: a 1000 x 800 world.
inline BoundingBox TestFrame() { return BoundingBox(0, 0, 1000, 800); }

/// Uniform points in the test frame.
inline PointSet MakeUniform(std::size_t n, std::uint64_t seed,
                            PointId first_id = 0) {
  return GenerateUniform(n, TestFrame(), seed, first_id);
}

/// A small city-shaped relation (BerlinMOD-style, scaled down).
inline PointSet MakeCity(std::size_t n, std::uint64_t seed,
                         PointId first_id = 0) {
  BerlinModOptions options;
  options.num_points = n;
  options.seed = seed;
  options.width = 1000;
  options.height = 800;
  options.street_spacing = 40;
  options.gps_noise = 1.5;
  options.first_id = first_id;
  auto points = GenerateBerlinModSnapshot(options);
  return std::move(points).value();
}

/// A clustered relation in the test frame.
inline PointSet MakeClustered(std::size_t num_clusters,
                              std::size_t points_per_cluster,
                              std::uint64_t seed, PointId first_id = 0) {
  ClusterOptions options;
  options.num_clusters = num_clusters;
  options.points_per_cluster = points_per_cluster;
  options.cluster_radius = 40;
  options.region = TestFrame();
  options.seed = seed;
  options.first_id = first_id;
  auto points = GenerateClusters(options);
  return std::move(points).value();
}

/// The layout on which the paper's contour stop loses rows (DESIGN.md
/// note 3). `cars`: `near_cars` points uniform in [0,400]x[0,800] plus
/// three far cars near (700, 400). `shops`: three points within 0.3 of
/// each near car plus three focal shops at (500, 400), (501, 400) and
/// (500, 401). Each far car's three nearest shops are the focal ones,
/// and no near car reaches them, so joining cars with shops at k = 3
/// under KNN(shops, 3, AT(500, 400)) or RANGE(499, 399, 502, 402)
/// yields exactly 9 pairs.
struct FarCarsLayout {
  PointSet cars;
  PointSet shops;
};

inline FarCarsLayout MakeFarCarsLayout(std::size_t near_cars,
                                       std::uint64_t seed) {
  FarCarsLayout layout;
  Rng rng(seed);
  for (std::size_t i = 0; i < near_cars; ++i) {
    const Point car{.id = static_cast<PointId>(i),
                    .x = rng.Uniform(0, 400),
                    .y = rng.Uniform(0, 800)};
    layout.cars.push_back(car);
    for (int s = 0; s < 3; ++s) {
      // |offset| <= 0.2 * sqrt(2) < 0.3.
      layout.shops.push_back(
          Point{.id = static_cast<PointId>(layout.shops.size()),
                .x = car.x + rng.Uniform(-0.2, 0.2),
                .y = car.y + rng.Uniform(-0.2, 0.2)});
    }
  }
  for (const auto& [x, y] : {std::pair{700.0, 400.0}, std::pair{700.0, 401.0},
                             std::pair{701.0, 400.0}}) {
    layout.cars.push_back(
        Point{.id = static_cast<PointId>(layout.cars.size()), .x = x, .y = y});
  }
  for (const auto& [x, y] : {std::pair{500.0, 400.0}, std::pair{501.0, 400.0},
                             std::pair{500.0, 401.0}}) {
    layout.shops.push_back(Point{
        .id = static_cast<PointId>(layout.shops.size()), .x = x, .y = y});
  }
  return layout;
}

/// Builds an index of the requested type with small blocks (so even the
/// small test relations span many blocks and the pruning paths fire).
inline std::unique_ptr<SpatialIndex> MakeIndex(
    const PointSet& points, IndexType type = IndexType::kGrid,
    std::size_t block_capacity = 16) {
  IndexOptions options;
  options.type = type;
  options.block_capacity = block_capacity;
  auto index = BuildIndex(points, options);
  return std::move(index).value();
}

/// How the Section 3 property suites lay out a join's two indexes. Each
/// layout past kPlain stresses an assumption of Counting's block-level
/// prune (DESIGN.md note 6).
enum class JoinLayout {
  kPlain,
  /// Outer and inner are one index: some outer points sit on focal
  /// neighbors, so their thresholds and their blocks' bounds are zero.
  kSelfJoin,
  /// Every outer point has the same x, so the outer blocks have zero
  /// width.
  kZeroWidthOuter,
  /// The inner index moved 30 points (Erase + Insert) after its build,
  /// so some of its block boxes are supersets of their points.
  kMutatedInner,
};

/// Test-name suffix of a layout.
inline const char* LayoutSuffix(JoinLayout layout) {
  switch (layout) {
    case JoinLayout::kPlain:
      return "";
    case JoinLayout::kSelfJoin:
      return "_self";
    case JoinLayout::kZeroWidthOuter:
      return "_zerowidth";
    case JoinLayout::kMutatedInner:
      return "_mutated";
  }
  return "";
}

/// A join's outer and inner index, laid out per JoinLayout. For a
/// self-join `outer` is `inner`.
struct JoinIndexes {
  std::unique_ptr<SpatialIndex> inner;
  std::unique_ptr<SpatialIndex> own_outer;
  const SpatialIndex* outer = nullptr;
};

/// Builds the indexes of a join over `outer` and `inner` (`outer` is
/// ignored for a self-join). Brute-force references must read the
/// points back from the indexes: the layout may change them.
inline JoinIndexes MakeJoinIndexes(PointSet outer, const PointSet& inner,
                                   IndexType type, JoinLayout layout) {
  JoinIndexes indexes;
  indexes.inner = MakeIndex(inner, type);
  if (layout == JoinLayout::kSelfJoin) {
    indexes.outer = indexes.inner.get();
    return indexes;
  }
  if (layout == JoinLayout::kZeroWidthOuter) {
    for (Point& p : outer) p.x = 437.3;
  }
  if (layout == JoinLayout::kMutatedInner) {
    // Moves stay inside the indexed extent, so no structure rebuilds.
    const BoundingBox extent = indexes.inner->bounds();
    Rng rng(71);
    for (int i = 0; i < 30; ++i) {
      const PointSet& points = indexes.inner->points();
      Point p = points[rng.NextIndex(points.size())];
      EXPECT_TRUE(indexes.inner->Erase(p.id).ok());
      p.x = rng.Uniform(extent.min_x(), extent.max_x());
      p.y = rng.Uniform(extent.min_y(), extent.max_y());
      EXPECT_TRUE(indexes.inner->Insert(p).ok());
    }
  }
  indexes.own_outer = MakeIndex(outer, type);
  indexes.outer = indexes.own_outer.get();
  return indexes;
}

// --- Brute-force reference implementations ---

/// Reference for Section 3 queries: (E1 JOIN E2) filtered by the focal
/// neighborhood, straight from the definitions.
inline JoinResult RefSelectInnerJoin(const PointSet& outer,
                                     const PointSet& inner,
                                     std::size_t join_k, const Point& focal,
                                     std::size_t select_k) {
  const Neighborhood nbr_f = BruteForceKnn(inner, focal, select_k);
  JoinResult pairs;
  for (const Point& e1 : outer) {
    for (const Neighbor& n : BruteForceKnn(inner, e1, join_k)) {
      if (Contains(nbr_f, n.point.id)) pairs.push_back(JoinPair{e1, n.point});
    }
  }
  Canonicalize(pairs);
  return pairs;
}

/// Reference for Section 4.1: both joins independently, intersect on B.
inline TripletResult RefUnchained(const PointSet& a, const PointSet& b,
                                  const PointSet& c, std::size_t k_ab,
                                  std::size_t k_cb) {
  TripletResult triplets;
  for (const Point& ap : a) {
    const Neighborhood nbr_a = BruteForceKnn(b, ap, k_ab);
    for (const Point& cp : c) {
      const Neighborhood nbr_c = BruteForceKnn(b, cp, k_cb);
      for (const Neighbor& bn : nbr_a) {
        if (Contains(nbr_c, bn.point.id)) {
          triplets.push_back(
              Triplet{.a = ap.id, .b = bn.point.id, .c = cp.id});
        }
      }
    }
  }
  Canonicalize(triplets);
  return triplets;
}

/// Reference for Section 4.2: chained joins from the definitions.
inline TripletResult RefChained(const PointSet& a, const PointSet& b,
                                const PointSet& c, std::size_t k_ab,
                                std::size_t k_bc) {
  TripletResult triplets;
  for (const Point& ap : a) {
    for (const Neighbor& bn : BruteForceKnn(b, ap, k_ab)) {
      for (const Neighbor& cn : BruteForceKnn(c, bn.point, k_bc)) {
        triplets.push_back(
            Triplet{.a = ap.id, .b = bn.point.id, .c = cn.point.id});
      }
    }
  }
  Canonicalize(triplets);
  return triplets;
}

/// Reference for Section 5: both selects in full, intersected.
inline TwoSelectsResult RefTwoSelects(const PointSet& relation,
                                      const Point& f1, std::size_t k1,
                                      const Point& f2, std::size_t k2) {
  return IntersectNeighborhoods(BruteForceKnn(relation, f1, k1),
                                BruteForceKnn(relation, f2, k2));
}

/// Procedure 1's per-point rule over plain NewScan(e1, kMaxDist) scans
/// of `inner`: the number of outer points for which more than `join_k`
/// points lie in inner blocks popped, in MAXDIST order, before the first
/// block whose MAXDIST reaches `threshold(e1)`. Counting must prune
/// exactly these points, however it gets there.
template <typename ThresholdFn>
std::size_t RefCountingPruned(const SpatialIndex& outer,
                              const SpatialIndex& inner, std::size_t join_k,
                              ThresholdFn threshold) {
  std::size_t pruned = 0;
  for (const Point& e1 : outer.points()) {
    const double t = threshold(e1);
    auto scan = inner.NewScan(e1, ScanOrder::kMaxDist);
    std::size_t count = 0;
    double max_dist = 0.0;
    while (count <= join_k && scan->HasNext()) {
      const BlockId id = scan->Next(&max_dist);
      if (max_dist >= t) break;
      count += inner.block(id).count();
    }
    if (count > join_k) ++pruned;
  }
  return pruned;
}

/// All index types, for parameterized suites.
inline std::vector<IndexType> AllIndexTypes() {
  return {IndexType::kGrid, IndexType::kQuadtree, IndexType::kRTree};
}

// --- Block scan checks ---

/// The (block, key) pairs a scan yields, in order.
using ScanTrace = std::vector<std::pair<BlockId, double>>;

/// Pops up to `limit` blocks of `scan`.
inline ScanTrace PopBlocks(BlockScan& scan, std::size_t limit) {
  ScanTrace trace;
  while (trace.size() < limit && scan.HasNext()) {
    double key = 0.0;
    const BlockId id = scan.Next(&key);
    trace.emplace_back(id, key);
  }
  return trace;
}

/// Aims for restart checks: inside the test frame, on indexed points,
/// outside the frame, far past what a grid cell coordinate holds as
/// size_t, so far that every key is +inf, and repeated.
inline std::vector<Point> RestartAims(const PointSet& points) {
  std::vector<Point> aims;
  const auto aim = [&aims](double x, double y) {
    aims.push_back(Point{.id = -1, .x = x, .y = y});
  };
  aim(137, 212);
  aims.push_back(points.front());
  aim(900, 50);
  aims.push_back(points[points.size() / 2]);
  aim(-5000, 0);
  aim(99999, 400);
  aim(1e25, 0);
  aim(-7, -1e25);
  aim(1e300, 0);
  aims.push_back(points.back());
  aims.push_back(points.back());
  aim(137, 212);
  aim(137, 212);
  return aims;
}

/// Restarts `held`, a scan of `index`, at each RestartAims point in
/// turn with alternating orders, and expects it to yield exactly what a
/// fresh NewScan of the same aim yields. Every third aim drains both
/// scans; the others stop after a few blocks, leaving entries behind
/// that the next Restart must discard.
inline void ExpectSameScans(const SpatialIndex& index, BlockScan& held) {
  const std::vector<Point> aims = RestartAims(index.points());
  for (std::size_t i = 0; i < aims.size(); ++i) {
    const ScanOrder order =
        i % 2 == 0 ? ScanOrder::kMinDist : ScanOrder::kMaxDist;
    const std::size_t limit = i % 3 == 0 ? index.num_blocks() : 1 + i;
    held.Restart(aims[i], order);
    auto fresh = index.NewScan(aims[i], order);
    EXPECT_EQ(PopBlocks(held, limit), PopBlocks(*fresh, limit))
        << "aim " << i << " at " << aims[i].ToString();
  }
}

/// The keys of the JSON object that starts at `json[0]`, in document
/// order; keys of nested objects are skipped. Enough for the records
/// the server renders, so the suite needs no JSON library.
inline std::vector<std::string> JsonObjectKeys(std::string_view json) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) break;
    } else if (c == '"') {
      std::size_t end = i + 1;
      while (end < json.size() && json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (depth == 1 && end + 1 < json.size() && json[end + 1] == ':') {
        keys.emplace_back(json.substr(i + 1, end - i - 1));
      }
      i = end;
    }
  }
  return keys;
}

/// JsonObjectKeys of the first `"name": {...}` member in `json`;
/// empty when there is none.
inline std::vector<std::string> JsonMemberKeys(std::string_view json,
                                               std::string_view name) {
  const std::string head = "\"" + std::string(name) + "\": {";
  const std::size_t at = json.find(head);
  if (at == std::string_view::npos) return {};
  return JsonObjectKeys(json.substr(at + head.size() - 1));
}

/// The number after the first `"name": ` in `json`; -1 when absent.
inline double JsonNumber(std::string_view json, std::string_view name) {
  const std::string head = "\"" + std::string(name) + "\": ";
  const std::size_t at = json.find(head);
  if (at == std::string_view::npos) return -1.0;
  return std::strtod(std::string(json.substr(at + head.size(), 32)).c_str(),
                     nullptr);
}

/// The metric names of a Prometheus exposition's `# TYPE` lines, in
/// order. Reads the raw text and its JSON-escaped form (the METRICS
/// record) alike.
inline std::vector<std::string> PrometheusTypeNames(std::string_view text) {
  constexpr std::string_view kType = "# TYPE ";
  std::vector<std::string> names;
  for (std::size_t at = text.find(kType); at != std::string_view::npos;
       at = text.find(kType, at)) {
    at += kType.size();
    names.emplace_back(text.substr(at, text.find(' ', at) - at));
  }
  return names;
}

/// A blocking loopback client for the serving tests: sends bytes
/// verbatim and reads newline-terminated lines (the KNNQL plane) or
/// Content-Length-framed responses (the HTTP plane).
class TestClient {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting, so a client
  /// that stops reading backs the server's writes up quickly (the
  /// stuck-peer tests).
  explicit TestClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TestClient() { Close(); }

  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (stripped). False on EOF/timeout.
  bool ReadLine(std::string* line, int timeout_ms = 10000) {
    std::size_t eol = 0;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      if (!Fill(timeout_ms)) return false;
    }
    line->assign(buffer_, 0, eol);
    buffer_.erase(0, eol + 1);
    return true;
  }

  /// One head + Content-Length-framed body without consuming past it,
  /// so a keep-alive connection can read the next response after.
  bool ReadResponse(std::string* head, std::string* body,
                    int timeout_ms = 10000) {
    std::size_t head_end = 0;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(timeout_ms)) return false;
    }
    head->assign(buffer_, 0, head_end);
    const std::size_t length = ContentLengthOf(*head);
    while (buffer_.size() < head_end + 4 + length) {
      if (!Fill(timeout_ms)) return false;
    }
    body->assign(buffer_, head_end + 4, length);
    buffer_.erase(0, head_end + 4 + length);
    return true;
  }

  /// Everything until the peer closes (single-response tests).
  std::string ReadAll(int timeout_ms = 10000) {
    while (Fill(timeout_ms)) {
    }
    return std::exchange(buffer_, std::string());
  }

  /// True when the peer cleanly closed (EOF) with no stray bytes.
  bool ReadEof(int timeout_ms = 10000) {
    if (!buffer_.empty()) return false;
    return !Fill(timeout_ms) && eof_;
  }

 private:
  static std::size_t ContentLengthOf(const std::string& head) {
    // The server emits canonical casing; no need to fold case here.
    constexpr std::string_view kField = "Content-Length:";
    const std::size_t at = head.find(kField);
    if (at == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::atoll(head.c_str() + at + kField.size()));
  }

  /// One recv into the buffer. False on EOF (sets eof_), error or
  /// timeout.
  bool Fill(int timeout_ms) {
    pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      eof_ = n == 0;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buffer_;
};

}  // namespace knnq::testing

#endif  // KNNQ_TESTS_TEST_UTIL_H_
