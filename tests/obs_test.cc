// Observability-layer tests: span-tree construction (nesting, timing
// monotonicity, counter merging, pre-measured grafts), the
// zero-allocation guarantee of disabled tracing hooks, metrics
// registry consistency under concurrent writers (the TSan target),
// histogram nanosecond fidelity, Prometheus exposition shape, and the
// EXPLAIN ANALYZE acceptance invariant: summing a counter over a
// query's span tree reproduces its ExecStats total, across every paper
// query shape, cached or not.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/query_engine.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/planner/query_spec.h"
#include "tests/test_util.h"

// ------------------------------------------------------- alloc counter
// Replacement global allocator that counts every operator new, so the
// disabled-tracing test can assert an instrumentation site allocates
// nothing. Replaceable operators need external linkage, hence global
// scope; each test file is its own binary, so the override is local to
// this suite.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace knnq {
namespace {

using testing::MakeCity;
using testing::MakeClustered;
using testing::MakeUniform;

// ------------------------------------------------------------- tracing

TEST(TraceTest, SpanNestingAndTimingMonotonicity) {
  obs::TraceContext trace;
  {
    obs::TraceScope scope(&trace);
    ASSERT_EQ(obs::CurrentTrace(), &trace);
    {
      obs::ScopedSpan outer("execute");
      EXPECT_TRUE(outer.active());
      {
        obs::ScopedSpan inner("select_s1");
        inner.Count("blocks_scanned", 3);
        inner.Count("blocks_scanned", 4);  // Merges: 7.
        inner.Count("points_compared", 0);  // Zero is dropped.
      }
      {
        obs::ScopedSpan inner("select_s2");
      }
    }
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  trace.Finish();

  const obs::Span& root = trace.root();
  EXPECT_EQ(root.name, "statement");
  ASSERT_EQ(root.children.size(), 1u);
  const obs::Span& execute = *root.children[0];
  EXPECT_EQ(execute.name, "execute");
  ASSERT_EQ(execute.children.size(), 2u);
  const obs::Span& s1 = *execute.children[0];
  const obs::Span& s2 = *execute.children[1];
  EXPECT_EQ(s1.name, "select_s1");
  EXPECT_EQ(s2.name, "select_s2");

  // Counter merge on one span; the zero-valued Count left no entry.
  ASSERT_EQ(s1.counters.size(), 1u);
  EXPECT_EQ(s1.counters[0].first, "blocks_scanned");
  EXPECT_EQ(s1.counters[0].second, 7u);
  EXPECT_TRUE(s2.counters.empty());

  // Timing is monotone: children start no earlier than their parent,
  // end no later, and siblings are stamped in order.
  EXPECT_GE(execute.start_ns, root.start_ns);
  EXPECT_LE(execute.start_ns + execute.duration_ns,
            root.start_ns + root.duration_ns);
  EXPECT_GE(s1.start_ns, execute.start_ns);
  EXPECT_GE(s2.start_ns, s1.start_ns + s1.duration_ns);
  EXPECT_LE(s2.start_ns + s2.duration_ns,
            execute.start_ns + execute.duration_ns);

  EXPECT_EQ(obs::CountSpans(root), 4u);
  EXPECT_EQ(obs::SumCounter(root, "blocks_scanned"), 7u);
  EXPECT_EQ(obs::SumCounter(root, "cache_hits"), 0u);
}

TEST(TraceTest, AttachMeasuredGraftsBeforeLiveChildren) {
  obs::TraceContext trace;
  {
    obs::TraceScope scope(&trace);
    obs::ScopedSpan execute("execute");
  }
  trace.AttachMeasured("parse", 1200);
  trace.AttachMeasured("bind", 800);
  trace.Finish();

  const obs::Span& root = trace.root();
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->name, "parse");
  EXPECT_EQ(root.children[0]->duration_ns, 1200u);
  EXPECT_EQ(root.children[1]->name, "bind");
  EXPECT_EQ(root.children[1]->duration_ns, 800u);
  EXPECT_EQ(root.children[2]->name, "execute");
}

TEST(TraceTest, DisabledSpansAllocateNothing) {
  ASSERT_EQ(obs::CurrentTrace(), nullptr);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    obs::ScopedSpan span("hot_path");
    span.Count("blocks_scanned", 42);
    obs::ScopedSpan nested("nested");
    nested.Count("points_compared", 7);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "disabled tracing hooks allocated " << (after - before)
      << " times in 100k iterations";
}

TEST(TraceTest, RenderTextAndJson) {
  obs::TraceContext trace;
  {
    obs::TraceScope scope(&trace);
    obs::ScopedSpan execute("execute");
    obs::ScopedSpan select("knn_select");
    select.Count("neighborhoods_computed", 2);
  }
  trace.Finish();

  const std::string text = obs::RenderText(trace.root());
  EXPECT_NE(text.find("statement"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("knn_select"), std::string::npos);
  EXPECT_NE(text.find("neighborhoods_computed=2"), std::string::npos);

  const std::string json = obs::ToJson(trace.root());
  EXPECT_NE(json.find("\"name\": \"statement\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"knn_select\""), std::string::npos);
  EXPECT_NE(json.find("\"neighborhoods_computed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  // Spans without counters omit the field entirely.
  EXPECT_EQ(json.find("\"counters\": {}"), std::string::npos);
}

// ------------------------------------------------------------- metrics

TEST(MetricsTest, HistogramKeepsSubMicrosecondFidelity) {
  obs::Histogram histogram;
  histogram.Record(100e-9);  // 100ns: bucket 6 ([64ns, 128ns)).
  histogram.Record(100e-9);
  histogram.Record(3e-3);  // 3ms.

  const obs::HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 3u);
  // The microsecond-bucketed predecessor truncated the 100ns samples
  // to zero; nanosecond buckets keep them visible in the mean.
  EXPECT_GT(summary.mean_ms, 0.9);  // ~1ms: (100ns+100ns+3ms)/3.
  EXPECT_LT(summary.p50_ms, 0.001);  // Median is the 100ns sample.
  EXPECT_GE(summary.p99_ms, summary.p50_ms);

  const obs::Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum_seconds, 3e-3 + 200e-9, 1e-6);
  // Bucket bounds double: 2^(i+1) nanoseconds.
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperSeconds(0), 2e-9);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperSeconds(1) /
                       obs::Histogram::BucketUpperSeconds(0),
                   2.0);
}

TEST(MetricsTest, RegistryConsistentUnderConcurrentWriters) {
  obs::MetricsRegistry registry;
  obs::Counter requests;
  obs::Histogram latency;
  registry.RegisterCounter("knnq_test_requests_total", "requests",
                           &requests);
  registry.RegisterHistogram("knnq_test_latency_seconds", "latency",
                             &latency);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};

  // A scraper renders continuously while writers hammer the
  // instruments - the race TSan checks.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = registry.RenderPrometheus();
      EXPECT_NE(text.find("knnq_test_requests_total"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        requests.Add();
        latency.Record(1e-6 * static_cast<double>(1 + (i + w) % 1000));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  // After the dust settles, totals are exact.
  EXPECT_EQ(requests.Value(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const obs::Histogram::Snapshot snap = latency.Snap();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWriters) * kPerWriter);

  const std::string text = registry.RenderPrometheus();
  const std::string want =
      "knnq_test_requests_total " +
      std::to_string(static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_NE(text.find(want), std::string::npos) << text;
}

TEST(MetricsTest, PrometheusRenderShape) {
  obs::MetricsRegistry registry;
  obs::Counter hits;
  hits.Add(5);
  obs::Histogram latency;
  latency.Record(50e-9);
  latency.Record(2e-3);
  registry.RegisterCounter("knnq_test_hits_total", "cache hits", &hits);
  registry.RegisterHistogram("knnq_test_wait_seconds", "wait", &latency);
  registry.RegisterCallbackCounter("knnq_test_scrapes_total", "scrapes",
                                   [] { return std::uint64_t{9}; });
  registry.RegisterCallbackGauge("knnq_test_depth", "queue depth",
                                 [] { return 2.5; });

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP knnq_test_hits_total cache hits"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE knnq_test_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("knnq_test_hits_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE knnq_test_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("knnq_test_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("knnq_test_wait_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("knnq_test_wait_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("knnq_test_scrapes_total 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE knnq_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("knnq_test_depth 2.5"), std::string::npos);

  // HELP precedes TYPE precedes samples, per family.
  const std::size_t help = text.find("# HELP knnq_test_wait_seconds");
  const std::size_t type = text.find("# TYPE knnq_test_wait_seconds");
  const std::size_t sample = text.find("knnq_test_wait_seconds_bucket");
  ASSERT_NE(help, std::string::npos);
  EXPECT_LT(help, type);
  EXPECT_LT(type, sample);

  // The JSON rendering of the same registry: one key per family, in
  // registration order; counters as integers, gauges as their value,
  // histograms as their percentile summary.
  const std::string json = registry.RenderJson();
  EXPECT_EQ(testing::JsonObjectKeys(json), testing::PrometheusTypeNames(text));
  EXPECT_EQ(json, "{\"knnq_test_hits_total\": 5, "
                  "\"knnq_test_wait_seconds\": " +
                      latency.Summarize().ToJson() +
                      ", \"knnq_test_scrapes_total\": 9, "
                      "\"knnq_test_depth\": 2.5}");
  EXPECT_NE(json.find("\"knnq_test_wait_seconds\": {\"count\": 2, "),
            std::string::npos)
      << json;

  // The name-keyed reader the history samples through: counters and
  // gauges only.
  EXPECT_EQ(registry.Read("knnq_test_hits_total"), 5.0);
  EXPECT_EQ(registry.Read("knnq_test_scrapes_total"), 9.0);
  EXPECT_EQ(registry.Read("knnq_test_depth"), 2.5);
  EXPECT_FALSE(registry.Read("knnq_test_wait_seconds").has_value());
  EXPECT_FALSE(registry.Read("knnq_test_absent").has_value());
}

// --------------------------------------------- EXPLAIN ANALYZE sums
// The acceptance invariant: counters attached at evaluator-phase
// granularity tile each searcher's work exactly once, so summing any
// ExecStats-named counter over the span tree reproduces the flat
// total - for all six paper query shapes, under every engine
// configuration (cached or not).

Catalog MakeCatalog() {
  Catalog catalog;
  IndexOptions options;
  options.block_capacity = 16;  // Many blocks: pruning paths fire.
  EXPECT_TRUE(
      catalog.AddRelation("uniform", MakeUniform(800, 41, 0), options).ok());
  EXPECT_TRUE(
      catalog.AddRelation("city", MakeCity(800, 42, 100000), options).ok());
  EXPECT_TRUE(catalog
                  .AddRelation("clustered", MakeClustered(3, 120, 43, 200000),
                               options)
                  .ok());
  return catalog;
}

/// All six QuerySpec shapes, twice with varying parameters (the second
/// round re-probes warm cache entries in cached configurations).
std::vector<QuerySpec> SixShapes(std::size_t rounds) {
  std::vector<QuerySpec> specs;
  for (std::size_t i = 0; i < rounds; ++i) {
    const double dx = static_cast<double>((i * 37) % 900);
    const double dy = static_cast<double>((i * 53) % 700);
    const std::size_t k = 2 + i % 5;
    specs.push_back(TwoSelectsSpec{
        .relation = "city",
        .s1 = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k},
        .s2 = {.focal = {.id = -1, .x = dx + 40, .y = dy + 25}, .k = k + 6},
    });
    specs.push_back(SelectInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .select = {.focal = {.id = -1, .x = dx, .y = dy}, .k = k + 2},
    });
    specs.push_back(SelectOuterJoinSpec{
        .outer = "city",
        .inner = "uniform",
        .join_k = 1 + k % 3,
        .select = {.focal = {.id = -1, .x = dy, .y = dx / 2}, .k = 5 + k},
    });
    specs.push_back(UnchainedJoinsSpec{
        .a = "uniform",
        .b = "city",
        .c = "clustered",
        .k_ab = 1 + k % 3,
        .k_cb = 1 + (k + 1) % 3,
    });
    specs.push_back(ChainedJoinsSpec{
        .a = "clustered",
        .b = "city",
        .c = "uniform",
        .k_ab = 1 + k % 3,
        .k_bc = 1 + (k + 2) % 3,
    });
    specs.push_back(RangeInnerJoinSpec{
        .outer = "uniform",
        .inner = "city",
        .join_k = k,
        .range = BoundingBox(dx, dy, dx + 150, dy + 120),
    });
  }
  return specs;
}

void ExpectTreeSumsMatchStats(const QueryEngine& engine,
                              const std::string& label) {
  const std::vector<QuerySpec> specs = SixShapes(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const EngineResult run = engine.RunAnalyzed(specs[i]);
    ASSERT_TRUE(run.ok())
        << label << " query " << i << ": " << run.status.ToString();
    ASSERT_NE(run.trace, nullptr) << label << " query " << i;
    const obs::Span& root = run.trace->root();
    EXPECT_GT(root.duration_ns, 0u);
    EXPECT_GE(obs::CountSpans(root), 3u);  // statement, plan, execute, ...

    const struct {
      const char* name;
      std::size_t total;
    } counters[] = {
        {"blocks_scanned", run.stats.blocks_scanned},
        {"blocks_skipped", run.stats.blocks_skipped},
        {"points_compared", run.stats.points_compared},
        {"neighborhoods_computed", run.stats.neighborhoods_computed},
        {"candidates_pruned", run.stats.candidates_pruned},
        {"cache_hits", run.stats.cache_hits},
        {"cache_misses", run.stats.cache_misses},
    };
    for (const auto& counter : counters) {
      EXPECT_EQ(obs::SumCounter(root, counter.name), counter.total)
          << label << " query " << i << " (" << run.explain << "): span sum "
          << "of " << counter.name << " diverges from ExecStats\n"
          << obs::RenderText(root);
    }
  }
}

TEST(ExplainAnalyzeTest, SpanSumsMatchExecStatsUncached) {
  EngineOptions options;
  options.num_threads = 2;
  const QueryEngine engine(MakeCatalog(), options);
  ExpectTreeSumsMatchStats(engine, "uncached");
}

TEST(ExplainAnalyzeTest, SpanSumsMatchExecStatsCached) {
  EngineOptions options;
  options.num_threads = 2;
  options.cache_mb = 8;
  const QueryEngine engine(MakeCatalog(), options);
  ExpectTreeSumsMatchStats(engine, "cached");
}

TEST(ExplainAnalyzeTest, PlainRunCarriesNoTrace) {
  EngineOptions options;
  options.num_threads = 2;
  const QueryEngine engine(MakeCatalog(), options);
  const EngineResult run = engine.Run(SixShapes(1)[0]);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.trace, nullptr);
}

TEST(ExplainAnalyzeTest, ParseAndBindSpansAreGrafted) {
  EngineOptions options;
  options.num_threads = 2;
  const QueryEngine engine(MakeCatalog(), options);
  const EngineResult run = engine.RunAnalyzed(SixShapes(1)[0], 1500, 900);
  ASSERT_TRUE(run.ok());
  ASSERT_NE(run.trace, nullptr);
  const obs::Span& root = run.trace->root();
  ASSERT_GE(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "parse");
  EXPECT_EQ(root.children[0]->duration_ns, 1500u);
  EXPECT_EQ(root.children[1]->name, "bind");
  EXPECT_EQ(root.children[1]->duration_ns, 900u);
}

}  // namespace
}  // namespace knnq
