// Tests of the benchmark's own statistics: nearest-rank percentiles and
// the ten-samples-beyond rule, open-loop timing from the scheduled send
// time, the max-rate rule of the point_lookup ladder, and span self
// time.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/client.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(NearestRank, PicksTheSampleAtRankCeilPN) {
  EXPECT_EQ(NearestRank(OneTo(100), 50), 50);
  EXPECT_EQ(NearestRank(OneTo(100), 99), 99);
  EXPECT_EQ(NearestRank(OneTo(100), 100), 100);
  EXPECT_EQ(NearestRank(OneTo(10), 99), 10);  // ceil(9.9) = 10.
  EXPECT_EQ(NearestRank(OneTo(1), 1), 1);
  EXPECT_EQ(NearestRank({}, 50), 0);
}

TEST(NearestRank, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(Supported(1000, 99));
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_FALSE(Supported(999, 99));
  EXPECT_TRUE(Supported(10000, 99.9));
  EXPECT_FALSE(Supported(9999, 99.9));
}

TEST(Summarize, ReportsTheHighestSupportedTailWithCounts) {
  const Summary big = Summarize(OneTo(1000));
  EXPECT_EQ(big.n, 1000u);
  EXPECT_EQ(big.p50, 500);
  EXPECT_EQ(big.p99, 990);
  EXPECT_EQ(big.tail_p, 99);
  EXPECT_EQ(big.tail, 990);

  const Summary small = Summarize(OneTo(200));
  EXPECT_EQ(small.tail_p, 95);  // p99 has 2 beyond, p95 has 10.
  EXPECT_EQ(small.tail, 190);
  const std::string printed = small.ToString("ms");
  EXPECT_NE(printed.find("n=200"), std::string::npos) << printed;
  EXPECT_NE(printed.find("10 beyond"), std::string::npos) << printed;

  EXPECT_EQ(Summarize(OneTo(5)).tail_p, 50);
}

TEST(PoissonSchedule, ExactCountSortedSeededAndInRange) {
  const auto a = PoissonSchedule(1000, 2.0, 7);
  const auto b = PoissonSchedule(1000, 2.0, 7);
  const auto c = PoissonSchedule(1000, 2.0, 8);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
}

TEST(OpenLoop, LatencyCountsFromTheScheduledSendTime) {
  // The generator itself stalled 5 ms: the request left late, and the
  // wait counts against it.
  const OpenLoopSample late{1'000'000, 6'000'000, 6'500'000, false};
  EXPECT_DOUBLE_EQ(OpenLoopLatencyMs(late), 5.5);
  EXPECT_DOUBLE_EQ(LatenessMs(late), 5.0);
  EXPECT_EQ(OpenLoopLatencyMs({0, 0, 100, true}), kInf);  // Failed.
  EXPECT_EQ(OpenLoopLatencyMs({0, 0, -1, false}), kInf);  // Unanswered.
}

/// A one-connection stand-in for the server: answers every statement
/// with an ok record, in order, and stalls once before answering
/// statement `stall_at` (1-based).
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listener_, 1);
    socklen_t len = sizeof addr;
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall_ms] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      char buf[4096];
      int id = 0;
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] != ';') continue;
          if (++id == stall_at) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
          const std::string line = "{\"id\": " + std::to_string(id) +
                                   ", \"status\": \"ok\", \"rows\": []}\n";
          ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        }
      }
      ::close(fd);
    });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listener_);
  }
  int port() const { return port_; }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, ServerStallInflatesTheLatencyOfLaterRequests) {
  constexpr int kRequests = 60;
  constexpr std::int64_t kGapNs = 2'000'000;  // Every 2 ms.
  constexpr int kStallAt = 5, kStallMs = 100;
  StallingServer server(kStallAt, kStallMs);
  std::vector<OpenLoopSample> samples;
  {
    LoadClient client;
    ASSERT_TRUE(client.Connect(server.port(), 1).ok());
    StatementPool pool;
    const std::uint32_t text = pool.Add("PING;");
    const std::int64_t t0 = NowNs() + 1'000'000;
    for (int i = 0; i < kRequests; ++i) {
      const std::int64_t due = t0 + i * kGapNs;
      while (NowNs() < due) client.Poll(due, [](std::uint32_t) {});
      client.Send(0, Job{text, 1, false}, pool[text], due, 0);
    }
    client.Drain(NowNs() + 5'000'000'000);
    EXPECT_EQ(client.outstanding(), 0u);
    EXPECT_EQ(client.protocol_errors(), 0u);
    for (const JobRecord& r : client.jobs()) {
      samples.push_back({r.scheduled, r.sent, r.done, r.error});
    }
  }  // Closing the client ends the fake server's loop.
  const std::int64_t stall_end =
      samples[kStallAt - 1].sent + kStallMs * 1'000'000LL;
  std::size_t inflated = 0;
  for (int i = kStallAt - 1; i < kRequests; ++i) {
    const OpenLoopSample& s = samples[i];
    // The generator kept its schedule during the stall (a closed loop
    // would have sent these only after it, up to kStallMs late; the
    // margin absorbs scheduling hiccups of a busy host) ...
    EXPECT_LT(LatenessMs(s), kStallMs / 2.0) << "request " << i;
    // ... so every request due during it waited for its end.
    if (s.scheduled < stall_end - 5'000'000) {
      ++inflated;
      EXPECT_GE(OpenLoopLatencyMs(s),
                static_cast<double>(stall_end - s.scheduled) / 1e6 - 1.0)
          << "request " << i;
    }
  }
  EXPECT_GE(inflated, 30u);
  EXPECT_LT(OpenLoopLatencyMs(samples[0]), kStallMs / 2.0);
  const Summary all = Summarize([&] {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(OpenLoopLatencyMs(s));
    return v;
  }());
  EXPECT_GT(all.p50, 10.0);  // Most requests saw part of the stall.
}

std::vector<OpenLoopSample> Steady(std::size_t n, double ms) {
  std::vector<OpenLoopSample> v;
  for (std::size_t i = 0; i < n; ++i) {
    const auto at = static_cast<std::int64_t>(i) * 1'000'000;
    v.push_back({at, at, at + static_cast<std::int64_t>(ms * 1e6), false});
  }
  return v;
}

TEST(MaxRate, StepMeetsTheLimitOnlyWithoutMissesOrBacklog) {
  EXPECT_TRUE(JudgeStep(1000, Steady(3000, 0.5), 2.0).meets_limit);
  EXPECT_FALSE(JudgeStep(1000, Steady(3000, 2.5), 2.0).meets_limit);

  // Refused requests miss the limit: 2% refused in every window puts
  // every window's p99 at +inf although the answered ones are fast.
  auto refused = Steady(3000, 0.5);
  for (std::size_t i = 0; i < refused.size(); i += 50) refused[i].failed = true;
  const StepVerdict r = JudgeStep(1000, refused, 2.0);
  EXPECT_EQ(r.failed, 60u);
  EXPECT_FALSE(r.meets_limit);

  // So do unanswered requests.
  auto lost = Steady(3000, 0.5);
  for (std::size_t i = 0; i < lost.size(); i += 50) lost[i].done = -1;
  EXPECT_FALSE(JudgeStep(1000, lost, 2.0).meets_limit);

  // One stalled window (a host stall: slow answers and refusals in one
  // burst) inflates that window only; the windowed p99 holds.
  auto stalled = Steady(3000, 0.5);
  for (std::size_t i = 100; i < 140; ++i) stalled[i].failed = true;
  const StepVerdict s = JudgeStep(1000, stalled, 2.0);
  EXPECT_EQ(s.latency.p99, kInf);
  EXPECT_EQ(s.latency.p99_windowed, 0.5);
  EXPECT_TRUE(s.meets_limit);

  // A growing backlog: p99 under the limit, but the last quarter waits
  // far longer than the first.
  auto growing = Steady(1000, 0.2);
  for (std::size_t i = 500; i < 1000; ++i) {
    growing[i].done = growing[i].scheduled +
                      static_cast<std::int64_t>((0.2 + 1.6 * (i - 500) / 500.0) * 1e6);
  }
  const StepVerdict g = JudgeStep(1000, growing, 2.0);
  EXPECT_LE(g.latency.p99, 2.0);
  EXPECT_TRUE(g.backlog_growing);
  EXPECT_FALSE(g.meets_limit);
}

TEST(Summarize, WindowedP99IsTheMedianOfPerWindowP99) {
  std::vector<double> v(5000, 1.0);
  for (std::size_t i = 0; i < 40; ++i) v[i] = 50.0;           // Window 0.
  for (std::size_t i = 1000; i < 1040; ++i) v[i] = 40.0;      // Window 1.
  const Summary s = Summarize(v);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_EQ(s.p99, 40.0);  // 80 slow samples of 5000: the whole-run p99.
  EXPECT_EQ(s.p99_windowed, 1.0);
  EXPECT_EQ(Summarize(OneTo(999)).windows, 0u);
  EXPECT_EQ(Summarize(OneTo(999)).p99_windowed, Summarize(OneTo(999)).p99);
}

TEST(MaxRate, HighestStepMeetingTheLimitReportsItsAchievedRate) {
  StepVerdict a{.offered_qps = 1000, .achieved_qps = 999, .meets_limit = true};
  StepVerdict b{.offered_qps = 2000, .achieved_qps = 1998, .meets_limit = true};
  StepVerdict c{.offered_qps = 4000, .achieved_qps = 3100, .meets_limit = false};
  EXPECT_EQ(MaxRateQps({a, b, c}), 1998);
  EXPECT_EQ(MaxRateQps({c, a}), 999);
  EXPECT_EQ(MaxRateQps({c}), 0);
  EXPECT_EQ(MaxRateQps({}), 0);
  // The achieved rate is measured: answered / (last answer - start).
  const StepVerdict measured = JudgeStep(1000, Steady(1000, 1.0), 2.0);
  EXPECT_NEAR(measured.achieved_qps, 1000.0, 1.5);
}

TEST(MedianOverSlices, OneSlowSliceMovesNeitherMedian) {
  // Five 1-second slices, 100 answers each at 1 ms; slice 2 is a host
  // slowdown: 20 answers at 9 ms.
  std::vector<Completion> c;
  for (int slice = 0; slice < 5; ++slice) {
    const int n = slice == 2 ? 20 : 100;
    const double ms = slice == 2 ? 9.0 : 1.0;
    for (int i = 0; i < n; ++i) {
      const std::int64_t at = slice * 1'000'000'000LL + i * 9'000'000LL;
      c.push_back({at, at + static_cast<std::int64_t>(ms * 1e6), ms});
    }
  }
  const SliceMedians m = MedianOverSlices(c, 0, 5'000'000'000LL, 5);
  EXPECT_EQ(m.p50_ms, 1.0);
  EXPECT_EQ(m.per_second, 100.0);
  // Outside [start, end) counts nowhere.
  EXPECT_EQ(MedianOverSlices(c, 0, 1'000'000'000LL, 1).per_second, 100.0);
}

TEST(SelfTimes, DurationMinusTheUnionOfChildren) {
  std::vector<Span> spans = {
      {.name = 0, .start = 0, .end = 100},                 // Root.
      {.name = 1, .parent = 0, .start = 10, .end = 30},   // Child.
      {.name = 2, .parent = 0, .start = 25, .end = 50},   // Overlaps it.
      {.name = 3, .parent = 0, .start = 90, .end = 120},  // Escapes root.
      {.name = 4, .parent = 2, .start = 30, .end = 40},   // Grandchild.
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10));  // Covered: [10,50) and [90,100).
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 25 - 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);

  // Disjoint children inside the root tile it: self times sum to it.
  std::vector<Span> tiled = {
      {.name = 0, .start = 0, .end = 100},
      {.name = 1, .parent = 0, .start = 0, .end = 40},
      {.name = 2, .parent = 0, .start = 40, .end = 97},
  };
  const auto t = SelfTimes(tiled);
  EXPECT_EQ(t[0] + t[1] + t[2], 100);
  EXPECT_EQ(t[0], 3);
}

TEST(ResultHash, IgnoresIdAndStats) {
  const std::string served =
      "{\"id\": 7, \"query\": \"Q;\", \"status\": \"ok\", \"rows\": [1], "
      "\"stats\": {\"wall_ms\": 0.5}}";
  const std::string local =
      "{\"query\": \"Q;\", \"status\": \"ok\", \"rows\": [1], "
      "\"stats\": {\"wall_ms\": 0.9}}";
  const std::string other =
      "{\"id\": 7, \"query\": \"Q;\", \"status\": \"ok\", \"rows\": [2], "
      "\"stats\": {\"wall_ms\": 0.5}}";
  EXPECT_EQ(ResultHash(served), ResultHash(local));
  EXPECT_NE(ResultHash(served), ResultHash(other));
}

}  // namespace
}  // namespace perfbench
