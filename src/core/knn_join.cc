#include "src/core/knn_join.h"

#include "src/core/phase_trace.h"
#include "src/engine/neighborhood_cache.h"

namespace knnq {

Result<JoinResult> KnnJoin(const PointSet& outer, const SpatialIndex& inner,
                           std::size_t k, ExecStats* exec,
                           NeighborhoodCache* shared_cache) {
  if (k == 0) {
    return Status::InvalidArgument("kNN-join requires k > 0");
  }
  JoinResult pairs;
  CachingKnnSearcher searcher(inner, shared_cache);
  {
    PhaseSpan phase("join_probe", &searcher.stats());
    for (const Point& e1 : outer) {
      for (const Neighbor& n : searcher.GetKnn(e1, k)) {
        pairs.push_back(JoinPair{e1, n.point});
      }
    }
  }
  if (exec != nullptr) exec->AddSearch(searcher.stats());
  Canonicalize(pairs);
  return pairs;
}

}  // namespace knnq
