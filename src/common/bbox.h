// Axis-aligned bounding boxes and the MINDIST / MAXDIST metrics.
//
// MINDIST(p, b) and MAXDIST(p, b) (Roussopoulos et al. [13]) are the
// minimum and maximum possible distance between point p and any location
// inside box b. Every pruning rule in the paper is phrased in terms of
// these two metrics, so they live here next to the box type.

#ifndef KNNQ_SRC_COMMON_BBOX_H_
#define KNNQ_SRC_COMMON_BBOX_H_

#include <string>

#include "src/common/point.h"

namespace knnq {

/// A closed axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
/// A default-constructed box is empty (inverted bounds) and grows via
/// Extend.
class BoundingBox {
 public:
  /// Creates an empty box: Contains() is false for every point and
  /// Extend establishes the first bounds.
  BoundingBox();

  /// Creates the box with the given corners. Requires min <= max per axis.
  BoundingBox(double min_x, double min_y, double max_x, double max_y);

  /// Returns the smallest box containing all of `points` (empty box for an
  /// empty set).
  static BoundingBox Of(const PointSet& points);

  double min_x() const { return min_x_; }
  double min_y() const { return min_y_; }
  double max_x() const { return max_x_; }
  double max_y() const { return max_y_; }

  bool empty() const { return min_x_ > max_x_; }
  double width() const { return empty() ? 0.0 : max_x_ - min_x_; }
  double height() const { return empty() ? 0.0 : max_y_ - min_y_; }
  double Area() const { return width() * height(); }

  /// Center of the box. Undefined for an empty box (guarded by DCHECK).
  Point Center() const;

  /// Length of the box diagonal; the paper's `block.diagonal`.
  double Diagonal() const;

  /// Grows the box to contain `p`.
  void Extend(const Point& p);
  /// Grows the box to contain `other`.
  void Extend(const BoundingBox& other);

  /// Expands each side outward by `margin` (>= 0).
  BoundingBox Inflated(double margin) const;

  bool Contains(const Point& p) const {
    return p.x >= min_x_ && p.x <= max_x_ && p.y >= min_y_ && p.y <= max_y_;
  }

  bool Intersects(const BoundingBox& other) const;

  /// Squared MINDIST: 0 when `p` is inside the box.
  double SquaredMinDist(const Point& p) const;
  /// Squared MAXDIST: distance to the farthest corner.
  double SquaredMaxDist(const Point& p) const;

  /// MINDIST(p, box) per [13].
  double MinDist(const Point& p) const;
  /// MAXDIST(p, box) per [13].
  double MaxDist(const Point& p) const;

  /// Least distance between a point of this box and a point of `other`:
  /// 0 when the boxes overlap or touch. Symmetric. For every point p of
  /// this box, MinDist(other) <= other.MinDist(p) in floating point too,
  /// since both round the same monotone chain of operations.
  double MinDist(const BoundingBox& other) const;
  /// Greatest distance between a point of this box and a point of
  /// `other`: the farthest corner pair. Symmetric. For every point p of
  /// this box, other.MaxDist(p) <= MaxDist(other) in floating point too.
  double MaxDist(const BoundingBox& other) const;

  friend bool operator==(const BoundingBox& a, const BoundingBox& b) {
    return a.min_x_ == b.min_x_ && a.min_y_ == b.min_y_ &&
           a.max_x_ == b.max_x_ && a.max_y_ == b.max_y_;
  }

  std::string ToString() const;

 private:
  double min_x_;
  double min_y_;
  double max_x_;
  double max_y_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_COMMON_BBOX_H_
