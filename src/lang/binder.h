// KNNQL semantic binder: AST -> planner QuerySpec (queries) or DmlSpec
// (INSERT / DELETE / LOAD).
//
// Binding checks what the grammar cannot:
//   * every relation name resolves in the Catalog (skipped when no
//     catalog is given — the unparser round-trip tests bind shapes
//     whose relations exist nowhere, and both front ends bind DML
//     without one, so QueryEngine::ExecuteDml answers NotFound for an
//     unknown INSERT/DELETE target under the writer lock; LOAD is
//     exempt: it may create the relation);
//   * SELECT ... INTERSECT ... names the same relation twice (the
//     two-selects shape is defined over ONE relation);
//   * WHERE INNER/OUTER IN KNN(r, ...) names the join input it
//     constrains (r must equal the join's inner/outer relation);
//   * JOIN ... THEN KNN(b, c, k): the second join starts from the
//     first join's inner relation;
//   * JOIN ... INTERSECT KNN(c, b, k): both joins share the inner
//     relation B they intersect on.
//
// Every violation is reported at the line:column of the offending name.

#ifndef KNNQ_SRC_LANG_BINDER_H_
#define KNNQ_SRC_LANG_BINDER_H_

#include <string>
#include <vector>

#include "src/common/point.h"
#include "src/common/status.h"
#include "src/lang/ast.h"
#include "src/planner/catalog.h"
#include "src/planner/query_spec.h"

namespace knnq::knnql {

/// The bound form of a DML statement: relation checked, values
/// collected, ready for QueryEngine::ExecuteDml.
struct DmlSpec {
  enum class Kind { kInsert, kDelete, kLoad };
  Kind kind = Kind::kInsert;
  std::string relation;
  /// kInsert: the rows to add, ids all -1 (engine-assigned).
  std::vector<Point> rows;
  /// kDelete: the id to remove.
  PointId id = 0;
  /// kLoad: the dataset file path.
  std::string path;

  friend bool operator==(const DmlSpec&, const DmlSpec&) = default;
};

/// Binds one parsed query. `catalog` may be null to skip existence
/// checks (syntax-only binding).
Result<QuerySpec> Bind(const Query& query, const Catalog* catalog);

/// Binds one parsed DML statement (`body` must hold one of the DML
/// alternatives). `catalog` may be null to skip existence checks.
Result<DmlSpec> BindDml(const StatementBody& body, const Catalog* catalog);

}  // namespace knnq::knnql

#endif  // KNNQ_SRC_LANG_BINDER_H_
