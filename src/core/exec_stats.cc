#include "src/core/exec_stats.h"

#include <cstdio>

#include "src/common/text_parse.h"

namespace knnq {

std::string ExecStats::ToString() const {
  char buffer[320];
  int written = std::snprintf(
      buffer, sizeof(buffer),
      "blocks=%zu skipped=%zu points=%zu neighborhoods=%zu pruned=%zu "
      "arena_bytes=%zu wall=%.3fms",
      blocks_scanned, blocks_skipped, points_compared,
      neighborhoods_computed, candidates_pruned, arena_bytes,
      wall_seconds * 1e3);
  if ((cache_hits != 0 || cache_misses != 0 || cache_bytes != 0) &&
      written > 0 && static_cast<std::size_t>(written) < sizeof(buffer)) {
    std::snprintf(buffer + written, sizeof(buffer) - written,
                  " cache_hits=%zu cache_misses=%zu cache_bytes=%zu",
                  cache_hits, cache_misses, cache_bytes);
  }
  return buffer;
}

std::string ExecStats::ToJson() const {
  return "{\"blocks_scanned\": " + std::to_string(blocks_scanned) +
         ", \"blocks_skipped\": " + std::to_string(blocks_skipped) +
         ", \"points_compared\": " + std::to_string(points_compared) +
         ", \"neighborhoods_computed\": " +
         std::to_string(neighborhoods_computed) +
         ", \"candidates_pruned\": " + std::to_string(candidates_pruned) +
         ", \"cache_hits\": " + std::to_string(cache_hits) +
         ", \"cache_misses\": " + std::to_string(cache_misses) +
         ", \"cache_bytes\": " + std::to_string(cache_bytes) +
         ", \"arena_bytes\": " + std::to_string(arena_bytes) +
         ", \"wall_ms\": " + FormatDouble(wall_seconds * 1e3) + "}";
}

}  // namespace knnq
