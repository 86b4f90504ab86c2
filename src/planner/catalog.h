// Catalog: named relations registered with the planner.
//
// Each relation owns its spatial index; the planner resolves query
// specs against catalog names and derives statistics (cardinality,
// block coverage) for its cost heuristics.
//
// Relations are mutable: Mutate applies an ordered batch of inserts /
// erases through the index's incremental maintenance, and LoadRelation
// replaces (or creates) a relation wholesale. Every change bumps the
// mutated relation's own generation — the key caches use to invalidate
// per relation instead of wholesale.
//
// The catalog itself does no locking. QueryEngine wraps every mutation
// in its writer lock and every query in a reader lock, so a mutation
// changes an index in place while no query runs; standalone users must
// serialize writes against all reads themselves.

#ifndef KNNQ_SRC_PLANNER_CATALOG_H_
#define KNNQ_SRC_PLANNER_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_factory.h"
#include "src/index/spatial_index.h"

namespace knnq {

/// A registered relation.
struct Relation {
  std::string name;
  /// The relation's one index. Mutate and LoadRelation change this
  /// object in place (it is never replaced), so its instance_id() keys
  /// the relation's cache entries for the catalog's whole life.
  std::unique_ptr<SpatialIndex> index;
  /// Bumped by every mutation of THIS relation (and by its creation).
  /// Caches keyed by relation identity compare this to invalidate only
  /// what actually changed.
  std::uint64_t generation = 0;
  /// The id the next auto-assigned insert receives (max indexed id + 1).
  PointId next_id = 0;
  /// The log sequence number of the last durable write applied to this
  /// relation. 0 until the durability layer stamps one; the snapshot
  /// writer persists it so recovery knows which WAL records are
  /// already reflected.
  std::uint64_t last_lsn = 0;
};

/// One write against a relation, applied in batch order by Mutate.
struct MutationOp {
  enum class Kind { kInsert, kErase };
  Kind kind = Kind::kInsert;
  /// kInsert: the point to add. A negative id means "assign the
  /// relation's next free id".
  Point point;
  /// kErase: the id to remove. Erasing an absent id affects 0 rows and
  /// is not an error (SQL DELETE semantics).
  PointId erase_id = 0;

  static MutationOp Insert(double x, double y, PointId id = -1) {
    return MutationOp{.kind = Kind::kInsert,
                      .point = {.id = id, .x = x, .y = y}};
  }
  static MutationOp Erase(PointId id) {
    return MutationOp{.kind = Kind::kErase, .point = {}, .erase_id = id};
  }
};

/// What a Mutate call did.
struct MutationOutcome {
  /// Rows actually inserted or erased (absent-id erases do not count).
  std::size_t rows_affected = 0;
  /// The relation's generation after the call.
  std::uint64_t generation = 0;
};

/// Name -> relation registry. See the header comment for the
/// concurrency contract.
class Catalog {
 public:
  /// Indexes `points` and registers them under `name`. Fails on a
  /// duplicate name or invalid index options.
  Status AddRelation(const std::string& name, PointSet points,
                     const IndexOptions& options = {});

  /// Applies `ops` in order to relation `name`. Fails on an unknown
  /// relation or an invalid insert (non-finite coordinates); ops before
  /// the failing one stay applied. Bumps the relation's generation when
  /// at least one row changed.
  Result<MutationOutcome> Mutate(const std::string& name,
                                 const std::vector<MutationOp>& ops);

  /// Replaces relation `name`'s contents with `points` (BulkLoad, same
  /// index object and structure), or registers a new relation built
  /// with `options` when the name is unknown.
  Result<MutationOutcome> LoadRelation(const std::string& name,
                                       PointSet points,
                                       const IndexOptions& options = {});

  /// Registers a new relation that adopts a pre-built `index` wholesale
  /// (recovery rebuilds snapshot relations this way). Fails on a
  /// duplicate or empty name or a null index.
  Status AdoptRelation(const std::string& name,
                       std::unique_ptr<SpatialIndex> index, PointId next_id);

  /// Records that relation `name` reflects every durable write up to
  /// and including `lsn`. No generation bump: the stamp is recovery
  /// metadata, not a visible data change. No-op on an unknown name.
  void StampLsn(const std::string& name, std::uint64_t lsn);

  /// Looks a relation up by name.
  Result<const Relation*> Get(const std::string& name) const;

  /// True when `name` is registered.
  bool Has(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  /// Mutable lookup for the mutation paths.
  Result<Relation*> GetMutable(const std::string& name);

  std::map<std::string, Relation> relations_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_PLANNER_CATALOG_H_
