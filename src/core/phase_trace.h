// PhaseSpan: the evaluator-side tracing hook behind EXPLAIN ANALYZE.
//
// A PhaseSpan is a ScopedSpan that snapshots up to two SearchStats
// sources (the cumulative counters of the KnnSearchers the phase
// drives) when it opens and attaches their deltas when it closes,
// under the SAME names ExecStats::AddSearch folds them into
// (localities_computed -> neighborhoods_computed, points_scanned ->
// points_compared). Evaluators wrap their major stages (neighborhood
// builds, probe loops, intersection passes) in PhaseSpans that TILE
// each searcher's use: every GetKnn call happens inside exactly one
// phase observing that searcher, and phases never nest. Counters an
// evaluator adds to ExecStats directly (candidates_pruned, counting
// filters' blocks_scanned) are forwarded through Count() from exactly
// one phase. That discipline is what makes the span tree's counters
// sum exactly to the query's ExecStats totals - the property obs_test
// asserts for every paper query shape.
//
// Gauges (arena_bytes; ExecStats' wall_seconds and cache_bytes) are
// excluded: they do not telescope. When tracing is disabled, a
// PhaseSpan costs one thread-local load and never reads the stats.

#ifndef KNNQ_SRC_CORE_PHASE_TRACE_H_
#define KNNQ_SRC_CORE_PHASE_TRACE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/index/locality.h"
#include "src/obs/trace.h"

namespace knnq {

class PhaseSpan {
 public:
  /// Either source may be null (a phase that only forwards manual
  /// counts, or whose searcher is constructed conditionally).
  explicit PhaseSpan(const char* name, const SearchStats* a = nullptr,
                     const SearchStats* b = nullptr)
      : span_(name), a_(a), b_(b) {
    if (!span_.active()) return;
    if (a_ != nullptr) before_a_ = *a_;
    if (b_ != nullptr) before_b_ = *b_;
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// Forwards a counter an evaluator adds to ExecStats directly; the
  /// name must be the ExecStats field name.
  void Count(const char* name, std::uint64_t value) {
    span_.Count(name, value);
  }

  /// Registers an additional source (evaluators that drive a runtime-
  /// sized set of searchers, e.g. chained path joins). Snapshots the
  /// source now; call before the phase's first search.
  void AddSource(const SearchStats* s) {
    if (s == nullptr || !span_.active()) return;
    extra_.emplace_back(s, *s);
  }

  ~PhaseSpan() {
    if (!span_.active()) return;
    if (a_ != nullptr) AttachDelta(*a_, before_a_);
    if (b_ != nullptr) AttachDelta(*b_, before_b_);
    for (const auto& [source, before] : extra_) {
      AttachDelta(*source, before);
    }
  }

 private:
  void AttachDelta(const SearchStats& now, const SearchStats& before) {
    span_.Count("neighborhoods_computed",
                now.localities_computed - before.localities_computed);
    span_.Count("blocks_scanned", now.blocks_scanned - before.blocks_scanned);
    span_.Count("points_compared", now.points_scanned - before.points_scanned);
    span_.Count("blocks_skipped", now.blocks_skipped - before.blocks_skipped);
    span_.Count("cache_hits", now.cache_hits - before.cache_hits);
    span_.Count("cache_misses", now.cache_misses - before.cache_misses);
  }

  obs::ScopedSpan span_;
  const SearchStats* a_;
  const SearchStats* b_;
  SearchStats before_a_;
  SearchStats before_b_;
  std::vector<std::pair<const SearchStats*, SearchStats>> extra_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_CORE_PHASE_TRACE_H_
