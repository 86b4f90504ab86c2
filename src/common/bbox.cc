#include "src/common/bbox.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/check.h"

namespace knnq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

BoundingBox::BoundingBox()
    : min_x_(kInf), min_y_(kInf), max_x_(-kInf), max_y_(-kInf) {}

BoundingBox::BoundingBox(double min_x, double min_y, double max_x,
                         double max_y)
    : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {
  KNNQ_CHECK_MSG(min_x <= max_x && min_y <= max_y,
                 "BoundingBox corners must satisfy min <= max");
}

BoundingBox BoundingBox::Of(const PointSet& points) {
  BoundingBox box;
  for (const Point& p : points) box.Extend(p);
  return box;
}

Point BoundingBox::Center() const {
  KNNQ_DCHECK(!empty());
  return Point{.id = -1,
               .x = (min_x_ + max_x_) / 2.0,
               .y = (min_y_ + max_y_) / 2.0};
}

double BoundingBox::Diagonal() const {
  if (empty()) return 0.0;
  return std::hypot(width(), height());
}

void BoundingBox::Extend(const Point& p) {
  min_x_ = std::min(min_x_, p.x);
  min_y_ = std::min(min_y_, p.y);
  max_x_ = std::max(max_x_, p.x);
  max_y_ = std::max(max_y_, p.y);
}

void BoundingBox::Extend(const BoundingBox& other) {
  if (other.empty()) return;
  min_x_ = std::min(min_x_, other.min_x_);
  min_y_ = std::min(min_y_, other.min_y_);
  max_x_ = std::max(max_x_, other.max_x_);
  max_y_ = std::max(max_y_, other.max_y_);
}

BoundingBox BoundingBox::Inflated(double margin) const {
  KNNQ_DCHECK(margin >= 0.0);
  if (empty()) return *this;
  return BoundingBox(min_x_ - margin, min_y_ - margin, max_x_ + margin,
                     max_y_ + margin);
}

bool BoundingBox::Intersects(const BoundingBox& other) const {
  if (empty() || other.empty()) return false;
  return min_x_ <= other.max_x_ && other.min_x_ <= max_x_ &&
         min_y_ <= other.max_y_ && other.min_y_ <= max_y_;
}

double BoundingBox::SquaredMinDist(const Point& p) const {
  KNNQ_DCHECK(!empty());
  const double dx = std::max({min_x_ - p.x, 0.0, p.x - max_x_});
  const double dy = std::max({min_y_ - p.y, 0.0, p.y - max_y_});
  return dx * dx + dy * dy;
}

double BoundingBox::SquaredMaxDist(const Point& p) const {
  KNNQ_DCHECK(!empty());
  const double dx = std::max(std::abs(p.x - min_x_), std::abs(p.x - max_x_));
  const double dy = std::max(std::abs(p.y - min_y_), std::abs(p.y - max_y_));
  return dx * dx + dy * dy;
}

double BoundingBox::MinDist(const Point& p) const {
  return std::sqrt(SquaredMinDist(p));
}

double BoundingBox::MaxDist(const Point& p) const {
  return std::sqrt(SquaredMaxDist(p));
}

double BoundingBox::MinDist(const BoundingBox& other) const {
  KNNQ_DCHECK(!empty() && !other.empty());
  const double dx =
      std::max({min_x_ - other.max_x_, 0.0, other.min_x_ - max_x_});
  const double dy =
      std::max({min_y_ - other.max_y_, 0.0, other.min_y_ - max_y_});
  return std::sqrt(dx * dx + dy * dy);
}

double BoundingBox::MaxDist(const BoundingBox& other) const {
  KNNQ_DCHECK(!empty() && !other.empty());
  const double dx = std::max(std::abs(max_x_ - other.min_x_),
                             std::abs(other.max_x_ - min_x_));
  const double dy = std::max(std::abs(max_y_ - other.min_y_),
                             std::abs(other.max_y_ - min_y_));
  return std::sqrt(dx * dx + dy * dy);
}

std::string BoundingBox::ToString() const {
  if (empty()) return "[empty]";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%.6g, %.6g] x [%.6g, %.6g]", min_x_,
                max_x_, min_y_, max_y_);
  return buf;
}

}  // namespace knnq
