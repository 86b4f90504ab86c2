// Unit tests for src/common: geometry, status, rng, stopwatch, the
// strict text parsers (including the locale-independence regression:
// number parsing must not bend under LC_NUMERIC), and the TCP listener
// both serving planes run on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <clocale>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/bbox.h"
#include "src/common/point.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/tcp_listener.h"
#include "src/common/text_parse.h"
#include "tests/test_util.h"

namespace knnq {
namespace {

TEST(PointTest, DistanceMatchesHandComputation) {
  const Point a{.id = 1, .x = 0, .y = 0};
  const Point b{.id = 2, .x = 3, .y = 4};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
}

TEST(PointTest, DistanceIsSymmetric) {
  const Point a{.id = 1, .x = -2.5, .y = 7.25};
  const Point b{.id = 2, .x = 11.0, .y = -3.5};
  EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
}

TEST(PointTest, AssignSequentialIdsRenumbers) {
  PointSet points = {{.id = 9, .x = 0, .y = 0}, {.id = 9, .x = 1, .y = 1}};
  AssignSequentialIds(points, 100);
  EXPECT_EQ(points[0].id, 100);
  EXPECT_EQ(points[1].id, 101);
}

TEST(PointTest, ToStringMentionsIdAndCoords) {
  const Point p{.id = 7, .x = 1.5, .y = -2};
  const std::string s = p.ToString();
  EXPECT_NE(s.find("7"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(BoundingBoxTest, EmptyBoxBehaves) {
  const BoundingBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.width(), 0.0);
  EXPECT_EQ(box.Area(), 0.0);
  EXPECT_FALSE(box.Contains(Point{.id = 0, .x = 0, .y = 0}));
}

TEST(BoundingBoxTest, ExtendGrowsToCoverPoints) {
  BoundingBox box;
  box.Extend(Point{.id = 0, .x = 2, .y = 3});
  box.Extend(Point{.id = 0, .x = -1, .y = 10});
  EXPECT_EQ(box.min_x(), -1);
  EXPECT_EQ(box.max_x(), 2);
  EXPECT_EQ(box.min_y(), 3);
  EXPECT_EQ(box.max_y(), 10);
  EXPECT_TRUE(box.Contains(Point{.id = 0, .x = 0, .y = 5}));
}

TEST(BoundingBoxTest, OfComputesTightBounds) {
  const PointSet points = {{.id = 0, .x = 1, .y = 1},
                           {.id = 1, .x = 5, .y = 2},
                           {.id = 2, .x = 3, .y = 9}};
  const BoundingBox box = BoundingBox::Of(points);
  EXPECT_EQ(box, BoundingBox(1, 1, 5, 9));
}

TEST(BoundingBoxTest, CenterAndDiagonal) {
  const BoundingBox box(0, 0, 6, 8);
  const Point center = box.Center();
  EXPECT_DOUBLE_EQ(center.x, 3);
  EXPECT_DOUBLE_EQ(center.y, 4);
  EXPECT_DOUBLE_EQ(box.Diagonal(), 10);
}

TEST(BoundingBoxTest, MinDistZeroInside) {
  const BoundingBox box(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(box.MinDist(Point{.id = 0, .x = 5, .y = 5}), 0.0);
  EXPECT_DOUBLE_EQ(box.MinDist(Point{.id = 0, .x = 0, .y = 0}), 0.0);
}

TEST(BoundingBoxTest, MinDistOutside) {
  const BoundingBox box(0, 0, 10, 10);
  // Straight left of the box.
  EXPECT_DOUBLE_EQ(box.MinDist(Point{.id = 0, .x = -3, .y = 5}), 3.0);
  // Diagonal from the corner.
  EXPECT_DOUBLE_EQ(box.MinDist(Point{.id = 0, .x = -3, .y = -4}), 5.0);
}

TEST(BoundingBoxTest, MaxDistIsFarthestCorner) {
  const BoundingBox box(0, 0, 10, 10);
  // From the origin corner, the farthest corner is (10, 10).
  EXPECT_DOUBLE_EQ(box.MaxDist(Point{.id = 0, .x = 0, .y = 0}),
                   std::sqrt(200.0));
  // From the center, all corners are equally far.
  EXPECT_DOUBLE_EQ(box.MaxDist(Point{.id = 0, .x = 5, .y = 5}),
                   std::sqrt(50.0));
}

TEST(BoundingBoxTest, MinDistNeverExceedsMaxDist) {
  Rng rng(7);
  const BoundingBox box(-5, -3, 12, 44);
  for (int i = 0; i < 200; ++i) {
    const Point p{.id = 0,
                  .x = rng.Uniform(-100, 100),
                  .y = rng.Uniform(-100, 100)};
    EXPECT_LE(box.MinDist(p), box.MaxDist(p));
  }
}

TEST(BoundingBoxTest, MinMaxDistBracketActualPointDistances) {
  // Property: for any point q inside the box, MINDIST <= d(p, q) <=
  // MAXDIST. This is the contract every pruning rule relies on.
  Rng rng(13);
  const BoundingBox box(10, 20, 50, 90);
  for (int i = 0; i < 500; ++i) {
    const Point p{.id = 0,
                  .x = rng.Uniform(-200, 200),
                  .y = rng.Uniform(-200, 200)};
    const Point q{.id = 0,
                  .x = rng.Uniform(box.min_x(), box.max_x()),
                  .y = rng.Uniform(box.min_y(), box.max_y())};
    const double d = Distance(p, q);
    EXPECT_LE(box.MinDist(p), d + 1e-9);
    EXPECT_GE(box.MaxDist(p), d - 1e-9);
  }
}

TEST(BoundingBoxTest, IntersectsDetectsOverlapAndTouching) {
  const BoundingBox a(0, 0, 10, 10);
  EXPECT_TRUE(a.Intersects(BoundingBox(5, 5, 15, 15)));
  EXPECT_TRUE(a.Intersects(BoundingBox(10, 0, 20, 10)));  // Shared edge.
  EXPECT_FALSE(a.Intersects(BoundingBox(11, 0, 20, 10)));
  EXPECT_FALSE(a.Intersects(BoundingBox()));
}

TEST(BoundingBoxTest, InflatedGrowsEachSide) {
  const BoundingBox box(0, 0, 10, 10);
  EXPECT_EQ(box.Inflated(2), BoundingBox(-2, -2, 12, 12));
}

Point At(double x, double y) { return Point{.id = 0, .x = x, .y = y}; }

std::vector<Point> Corners(const BoundingBox& box) {
  return {At(box.min_x(), box.min_y()), At(box.min_x(), box.max_y()),
          At(box.max_x(), box.min_y()), At(box.max_x(), box.max_y())};
}

/// A coordinate near 1e4 with a decimal fraction no double holds
/// exactly, like the coordinates of real data.
double RoughCoordinate(Rng& rng) {
  return 1e4 + static_cast<double>(rng.UniformInt(-3000, 3000)) / 10.0;
}

/// A box of RoughCoordinates; one in eight has zero width.
BoundingBox RoughBox(Rng& rng) {
  const double x1 = RoughCoordinate(rng);
  const double x2 = rng.NextIndex(8) == 0 ? x1 : RoughCoordinate(rng);
  const double y1 = RoughCoordinate(rng);
  const double y2 = RoughCoordinate(rng);
  return BoundingBox(std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
                     std::max(y1, y2));
}

TEST(BoundingBoxTest, BoxDistancesAreSymmetric) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const BoundingBox a = RoughBox(rng);
    const BoundingBox b = RoughBox(rng);
    EXPECT_EQ(a.MinDist(b), b.MinDist(a));
    EXPECT_EQ(a.MaxDist(b), b.MaxDist(a));
  }
}

TEST(BoundingBoxTest, BoxMinDistIsZeroForOverlappingOrTouchingBoxes) {
  const BoundingBox a(0, 0, 10, 10);
  EXPECT_EQ(a.MinDist(BoundingBox(5, 5, 15, 15)), 0.0);
  EXPECT_EQ(a.MinDist(BoundingBox(2, 2, 3, 3)), 0.0);      // Nested.
  EXPECT_EQ(a.MinDist(BoundingBox(10, 0, 20, 10)), 0.0);   // Shared edge.
  EXPECT_EQ(a.MinDist(BoundingBox(10, 10, 20, 20)), 0.0);  // Shared corner.
  EXPECT_DOUBLE_EQ(a.MinDist(BoundingBox(2, 13, 4, 20)), 3.0);
  EXPECT_DOUBLE_EQ(a.MinDist(BoundingBox(13, 14, 20, 20)), 5.0);
}

TEST(BoundingBoxTest, BoxMaxDistIsTheFarthestCornerPair) {
  Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    const BoundingBox a = RoughBox(rng);
    const BoundingBox b = RoughBox(rng);
    double farthest = 0.0;
    for (const Point& p : Corners(a)) {
      for (const Point& q : Corners(b)) {
        farthest = std::max(farthest, Distance(p, q));
      }
    }
    EXPECT_EQ(a.MaxDist(b), farthest);
  }
}

// Counting's block-level prune (DESIGN.md note 6) needs both bounds to
// hold for every point of a box as computed in doubles, not only in
// real arithmetic: no epsilon here.
TEST(BoundingBoxTest, BoxDistancesBoundEveryPointOfTheBoxInDoubles) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const BoundingBox a = RoughBox(rng);
    const BoundingBox b = RoughBox(rng);
    const Point center = a.Center();
    std::vector<Point> probes = Corners(a);
    probes.push_back(At(center.x, a.min_y()));
    probes.push_back(At(center.x, a.max_y()));
    probes.push_back(At(a.min_x(), center.y));
    probes.push_back(At(a.max_x(), center.y));
    for (int j = 0; j < 8; ++j) {
      // Uniform's rounding may land a hair past the upper edge.
      const double x = rng.Uniform(a.min_x(), a.max_x());
      const double y = rng.Uniform(a.min_y(), a.max_y());
      probes.push_back(At(std::min(x, a.max_x()), std::min(y, a.max_y())));
    }
    const std::string boxes = a.ToString() + " and " + b.ToString();
    for (const Point& p : probes) {
      ASSERT_TRUE(a.Contains(p));
      EXPECT_LE(a.MinDist(b), b.MinDist(p)) << boxes << " at " << p.ToString();
      EXPECT_LE(b.MaxDist(p), a.MaxDist(b)) << boxes << " at " << p.ToString();
    }
  }
}

TEST(StatusTest, OkByDefault) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be positive");
}

TEST(ResultTest, HoldsValue) {
  const Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  const Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformWithinRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, NextIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextIndex(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianRoughlyCentered) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent2(31);
  parent2.Fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.Next() == parent.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.Reset();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

// ---------------------------------------------------------- text parse

TEST(TextParseTest, ParseDoubleAcceptsTheDecimalGrammar) {
  EXPECT_EQ(ParseDouble("3").value(), 3.0);
  EXPECT_EQ(ParseDouble("-0.5").value(), -0.5);
  EXPECT_EQ(ParseDouble("1.25e-3").value(), 0.00125);
  // strtod-isms the rewrite preserves: leading whitespace, '+' sign.
  EXPECT_EQ(ParseDouble("  +2.5").value(), 2.5);
  EXPECT_EQ(ParseDouble("1e3").value(), 1000.0);
}

TEST(TextParseTest, ParseDoubleRejectsJunkHexAndNonFinite) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("0x10").ok());  // strtod accepted hex.
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("3,5").ok());
  EXPECT_FALSE(ParseDouble("2.5 ").ok());  // Trailing whitespace.
  const auto huge = ParseDouble("1e999");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("not finite"),
            std::string::npos);
}

TEST(TextParseTest, FormatDoubleIsParseDoublesInverse) {
  for (const double value : {0.1, -3.5, 1e-17, 12345.6789, 0.0}) {
    EXPECT_EQ(ParseDouble(FormatDouble(value)).value(), value);
  }
}

TEST(TextParseTest, FieldDiagnosticsNameTheOffendingPosition) {
  const auto bad_field = ParsePointText("1,bogus");
  ASSERT_FALSE(bad_field.ok());
  EXPECT_NE(bad_field.status().message().find("field 2"),
            std::string::npos)
      << bad_field.status().ToString();

  const auto long_point = ParsePointText("1,2,3");
  ASSERT_FALSE(long_point.ok());
  EXPECT_NE(long_point.status().message().find("got 3 fields, expected 2"),
            std::string::npos)
      << long_point.status().ToString();

  const auto trailing = ParsePointText("1,2,");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing comma"),
            std::string::npos)
      << trailing.status().ToString();
}

TEST(TextParseTest, ParseSizeIsStrict) {
  EXPECT_EQ(ParseSize("42").value(), 42u);
  EXPECT_EQ(ParseSize("0").value(), 0u);
  EXPECT_FALSE(ParseSize("").ok());
  EXPECT_FALSE(ParseSize("-1").ok());
  EXPECT_FALSE(ParseSize("4.5").ok());
  EXPECT_FALSE(ParseSize("1e3").ok());
  EXPECT_FALSE(ParseSize("99999999999999999999999").ok());
}

/// The locale regression: the strtod-based ParseDouble honored
/// LC_NUMERIC, so a comma-decimal locale (de_DE, fr_FR) read "1.5" as
/// 1.0 with trailing junk. The from_chars grammar must not move.
TEST(TextParseTest, ParseDoubleIgnoresCommaDecimalLocale) {
  const char* comma_locales[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                 "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR",
                                 "es_ES.UTF-8", "it_IT.UTF-8"};
  const char* applied = nullptr;
  for (const char* name : comma_locales) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      applied = name;
      break;
    }
  }
  if (applied == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed in this image";
  }
  // The locale really is comma-decimal, or the regression cannot fire.
  ASSERT_EQ(std::localeconv()->decimal_point[0], ',') << applied;

  EXPECT_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_EQ(ParseDouble("-2.25e1").value(), -22.5);
  EXPECT_FALSE(ParseDouble("1,5").ok());  // ',' is never a radix point.
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  const auto point = ParsePointText("1.5, 2.5");
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->x, 1.5);
  EXPECT_EQ(point->y, 2.5);

  std::setlocale(LC_NUMERIC, "C");
}

// ------------------------------------------------------- TCP listener

std::size_t OpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(TcpListenerTest, FailedStartReleasesEveryFd) {
  TcpListener held(TcpListenerOptions{}, [](TcpConnection&) {});
  ASSERT_TRUE(held.Start().ok());
  const std::size_t before = OpenFds();

  TcpListener bad_address(TcpListenerOptions{.host = "not-an-address"},
                          [](TcpConnection&) {});
  const Status refused = bad_address.Start();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  EXPECT_EQ(OpenFds(), before);

  TcpListener port_taken(TcpListenerOptions{.port = held.port()},
                         [](TcpConnection&) {});
  const Status in_use = port_taken.Start();
  EXPECT_EQ(in_use.code(), StatusCode::kIoError) << in_use.ToString();
  EXPECT_EQ(OpenFds(), before);
  EXPECT_FALSE(port_taken.started());
  // Nothing ran, so there is nothing to stop.
  EXPECT_FALSE(port_taken.Stop(std::chrono::milliseconds(0)));
  EXPECT_TRUE(held.Stop(std::chrono::milliseconds(0)));
}

TEST(TcpListenerTest, StopWithoutGraceJoinsOnceReadersSeeEof) {
  TcpListener listener(TcpListenerOptions{}, [](TcpConnection& conn) {
    std::string line;
    char chunk[256];
    while (line.find('\n') == std::string::npos) {
      const std::ptrdiff_t n = conn.Receive(chunk, sizeof(chunk), 1000);
      if (n < 0) return;
      line.append(chunk, static_cast<std::size_t>(n));
    }
    line.pop_back();
    EXPECT_EQ(conn.Write("echo " + line, "\n"),
              TcpConnection::WriteResult::kOk);
    // Read until the stop's half-close ends the input.
    while (conn.Receive(chunk, sizeof(chunk), 1000) >= 0) {
    }
  });
  ASSERT_TRUE(listener.Start().ok());
  testing::TestClient client(listener.port());
  ASSERT_TRUE(client.Send("hello\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "echo hello");
  EXPECT_EQ(listener.active_connections(), 1u);
  // nullopt never cuts: the join waits for the reader, which the
  // half-close wakes.
  EXPECT_TRUE(listener.Stop(std::nullopt));
  EXPECT_EQ(listener.active_connections(), 0u);
  EXPECT_TRUE(client.ReadEof());
}

TEST(TcpListenerTest, StopCutsAWriterWhosePeerStoppedReading) {
  std::atomic<int> result{-1};
  TcpListener listener(
      TcpListenerOptions{.sndbuf_bytes = 4096},
      [&result](TcpConnection& conn) {
        // No write deadline: only the stop's grace can end this write.
        const std::string big(4 << 20, 'x');
        result = static_cast<int>(conn.Write(big));
      });
  ASSERT_TRUE(listener.Start().ok());
  testing::TestClient stuck(listener.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(stuck.connected());
  for (int i = 0; i < 500 && listener.active_connections() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(listener.active_connections(), 1u);
  // Cut after 50 ms without progress, whether or not the write has
  // started: either way it fails.
  EXPECT_TRUE(listener.Stop(std::chrono::milliseconds(50)));
  EXPECT_EQ(result.load(),
            static_cast<int>(TcpConnection::WriteResult::kFailed));
  EXPECT_EQ(listener.active_connections(), 0u);
  EXPECT_FALSE(listener.Stop(std::chrono::milliseconds(0)));
}

}  // namespace
}  // namespace knnq
