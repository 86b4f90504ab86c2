#include "src/planner/catalog.h"

#include <algorithm>
#include <utility>

namespace knnq {

namespace {

PointId NextIdAfter(const PointSet& points) {
  PointId next = 0;
  for (const Point& p : points) next = std::max(next, p.id + 1);
  return next;
}

}  // namespace

Status Catalog::AddRelation(const std::string& name, PointSet points,
                            const IndexOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (relations_.contains(name)) {
    return Status::InvalidArgument("relation already registered: " + name);
  }
  const PointId next_id = NextIdAfter(points);
  auto index = BuildIndex(std::move(points), options);
  if (!index.ok()) return index.status();
  relations_.emplace(name, Relation{.name = name,
                                    .index = std::move(index.value()),
                                    .generation = 1,
                                    .next_id = next_id});
  return Status::Ok();
}

Result<Relation*> Catalog::GetMutable(const std::string& name) {
  const auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return &it->second;
}

Result<MutationOutcome> Catalog::Mutate(const std::string& name,
                                        const std::vector<MutationOp>& ops) {
  auto relation = GetMutable(name);
  if (!relation.ok()) return relation.status();
  Relation& rel = **relation;

  std::size_t rows = 0;
  for (const MutationOp& op : ops) {
    if (op.kind == MutationOp::Kind::kInsert) {
      Point p = op.point;
      if (p.id < 0) p.id = rel.next_id;
      if (Status s = rel.index->Insert(p); !s.ok()) {
        if (rows > 0) ++rel.generation;
        return s;
      }
      rel.next_id = std::max(rel.next_id, p.id + 1);
      ++rows;
    } else {
      const Status erased = rel.index->Erase(op.erase_id);
      if (erased.ok()) {
        ++rows;
      } else if (erased.code() != StatusCode::kNotFound) {
        if (rows > 0) ++rel.generation;
        return erased;
      }
    }
  }
  if (rows > 0) ++rel.generation;
  return MutationOutcome{.rows_affected = rows,
                         .generation = rel.generation};
}

Result<MutationOutcome> Catalog::LoadRelation(const std::string& name,
                                              PointSet points,
                                              const IndexOptions& options) {
  if (!relations_.contains(name)) {
    const std::size_t rows = points.size();
    if (Status s = AddRelation(name, std::move(points), options); !s.ok()) {
      return s;
    }
    const Relation& rel = relations_.at(name);
    return MutationOutcome{.rows_affected = rows,
                           .generation = rel.generation};
  }
  Relation& rel = relations_.at(name);
  const std::size_t rows = points.size();
  const PointId next_id = NextIdAfter(points);
  if (Status s = rel.index->BulkLoad(std::move(points)); !s.ok()) return s;
  rel.next_id = next_id;
  ++rel.generation;
  return MutationOutcome{.rows_affected = rows,
                         .generation = rel.generation};
}

Status Catalog::AdoptRelation(const std::string& name,
                              std::unique_ptr<SpatialIndex> index,
                              PointId next_id) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (relations_.contains(name)) {
    return Status::InvalidArgument("relation already registered: " + name);
  }
  if (index == nullptr) {
    return Status::InvalidArgument("AdoptRelation: null index");
  }
  relations_.emplace(name, Relation{.name = name,
                                    .index = std::move(index),
                                    .generation = 1,
                                    .next_id = next_id});
  return Status::Ok();
}

void Catalog::StampLsn(const std::string& name, std::uint64_t lsn) {
  const auto it = relations_.find(name);
  if (it == relations_.end()) return;
  it->second.last_lsn = std::max(it->second.last_lsn, lsn);
}

Result<const Relation*> Catalog::Get(const std::string& name) const {
  const auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return &it->second;
}

bool Catalog::Has(const std::string& name) const {
  return relations_.contains(name);
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, unused] : relations_) names.push_back(name);
  return names;
}

}  // namespace knnq
