#include "src/lang/binder.h"

#include <string>
#include <utility>
#include <variant>

namespace knnq::knnql {

namespace {

Status CheckRelation(const Catalog* catalog, const std::string& name,
                     SourcePos pos) {
  if (catalog != nullptr && !catalog->Has(name)) {
    return ErrorAt(pos, "unknown relation '" + name + "'");
  }
  return Status::Ok();
}

/// The WHERE clause must re-state the join input it constrains; a
/// different name is the paper's invalid-pushdown trap in the making.
Status CheckSideMatches(const KnnSelectExpr& select,
                        const std::string& join_input, const char* side) {
  if (select.relation != join_input) {
    return ErrorAt(select.relation_pos,
                   std::string("the ") + side +
                       " selection must name the join's " + side +
                       " relation '" + join_input + "', got '" +
                       select.relation + "'");
  }
  return Status::Ok();
}

KnnPredicate ToPredicate(const KnnSelectExpr& expr) {
  return KnnPredicate{
      .focal = {.id = -1, .x = expr.x, .y = expr.y},
      .k = expr.k,
  };
}

Result<QuerySpec> BindSelect(const SelectQuery& query,
                             const Catalog* catalog) {
  if (query.s2.relation != query.s1.relation) {
    return ErrorAt(query.s2.relation_pos,
                   "both selects of a SELECT ... INTERSECT query run over "
                   "one relation; expected '" +
                       query.s1.relation + "', got '" + query.s2.relation +
                       "'");
  }
  if (Status s = CheckRelation(catalog, query.s1.relation,
                               query.s1.relation_pos);
      !s.ok()) {
    return s;
  }
  return QuerySpec(TwoSelectsSpec{
      .relation = query.s1.relation,
      .s1 = ToPredicate(query.s1),
      .s2 = ToPredicate(query.s2),
  });
}

Status CheckJoin(const KnnJoinExpr& join, const Catalog* catalog) {
  if (Status s = CheckRelation(catalog, join.outer, join.outer_pos);
      !s.ok()) {
    return s;
  }
  return CheckRelation(catalog, join.inner, join.inner_pos);
}

Result<QuerySpec> BindJoinWhereKnn(const JoinWhereKnnQuery& query,
                                   const Catalog* catalog) {
  if (Status s = CheckJoin(query.join, catalog); !s.ok()) return s;
  if (query.side == JoinSide::kInner) {
    if (Status s = CheckSideMatches(query.select, query.join.inner,
                                    "inner");
        !s.ok()) {
      return s;
    }
    return QuerySpec(SelectInnerJoinSpec{
        .outer = query.join.outer,
        .inner = query.join.inner,
        .join_k = query.join.k,
        .select = ToPredicate(query.select),
    });
  }
  if (Status s = CheckSideMatches(query.select, query.join.outer, "outer");
      !s.ok()) {
    return s;
  }
  return QuerySpec(SelectOuterJoinSpec{
      .outer = query.join.outer,
      .inner = query.join.inner,
      .join_k = query.join.k,
      .select = ToPredicate(query.select),
  });
}

Result<QuerySpec> BindJoinWhereRange(const JoinWhereRangeQuery& query,
                                     const Catalog* catalog) {
  if (Status s = CheckJoin(query.join, catalog); !s.ok()) return s;
  return QuerySpec(RangeInnerJoinSpec{
      .outer = query.join.outer,
      .inner = query.join.inner,
      .join_k = query.join.k,
      .range = query.range,
  });
}

Result<QuerySpec> BindJoinThen(const JoinThenQuery& query,
                               const Catalog* catalog) {
  if (Status s = CheckJoin(query.first, catalog); !s.ok()) return s;
  if (Status s = CheckJoin(query.second, catalog); !s.ok()) return s;
  if (query.second.outer != query.first.inner) {
    return ErrorAt(query.second.outer_pos,
                   "a chained join continues from the first join's inner "
                   "relation '" +
                       query.first.inner + "', got '" + query.second.outer +
                       "'");
  }
  return QuerySpec(ChainedJoinsSpec{
      .a = query.first.outer,
      .b = query.first.inner,
      .c = query.second.inner,
      .k_ab = query.first.k,
      .k_bc = query.second.k,
  });
}

Result<QuerySpec> BindJoinIntersect(const JoinIntersectQuery& query,
                                    const Catalog* catalog) {
  if (Status s = CheckJoin(query.first, catalog); !s.ok()) return s;
  if (Status s = CheckJoin(query.second, catalog); !s.ok()) return s;
  if (query.second.inner != query.first.inner) {
    return ErrorAt(query.second.inner_pos,
                   "unchained joins intersect on a shared inner relation; "
                   "expected '" +
                       query.first.inner + "', got '" + query.second.inner +
                       "'");
  }
  return QuerySpec(UnchainedJoinsSpec{
      .a = query.first.outer,
      .b = query.first.inner,
      .c = query.second.outer,
      .k_ab = query.first.k,
      .k_cb = query.second.k,
  });
}

}  // namespace

Result<QuerySpec> Bind(const Query& query, const Catalog* catalog) {
  return std::visit(
      [&](const auto& concrete) -> Result<QuerySpec> {
        using T = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<T, SelectQuery>) {
          return BindSelect(concrete, catalog);
        } else if constexpr (std::is_same_v<T, JoinWhereKnnQuery>) {
          return BindJoinWhereKnn(concrete, catalog);
        } else if constexpr (std::is_same_v<T, JoinWhereRangeQuery>) {
          return BindJoinWhereRange(concrete, catalog);
        } else if constexpr (std::is_same_v<T, JoinThenQuery>) {
          return BindJoinThen(concrete, catalog);
        } else {
          return BindJoinIntersect(concrete, catalog);
        }
      },
      query);
}

Result<DmlSpec> BindDml(const StatementBody& body, const Catalog* catalog) {
  if (const auto* insert = std::get_if<InsertStatement>(&body)) {
    if (Status s = CheckRelation(catalog, insert->relation,
                                 insert->relation_pos);
        !s.ok()) {
      return s;
    }
    DmlSpec spec;
    spec.kind = DmlSpec::Kind::kInsert;
    spec.relation = insert->relation;
    spec.rows.reserve(insert->values.size());
    for (const InsertStatement::Value& value : insert->values) {
      spec.rows.push_back(Point{.id = -1, .x = value.x, .y = value.y});
    }
    return spec;
  }
  if (const auto* del = std::get_if<DeleteStatement>(&body)) {
    if (Status s =
            CheckRelation(catalog, del->relation, del->relation_pos);
        !s.ok()) {
      return s;
    }
    DmlSpec spec;
    spec.kind = DmlSpec::Kind::kDelete;
    spec.relation = del->relation;
    spec.id = del->id;
    return spec;
  }
  // LOAD may create the relation, so no existence check.
  const auto& load = std::get<LoadStatement>(body);
  DmlSpec spec;
  spec.kind = DmlSpec::Kind::kLoad;
  spec.relation = load.relation;
  spec.path = load.path;
  return spec;
}

}  // namespace knnq::knnql
