// Axis-aligned 2-D boxes (pixel space) and IoU math used by the detector,
// the AP evaluator, and the motion-vector tracker.
#pragma once

#include <algorithm>
#include <vector>

#include "geom/vec.h"

namespace dive::geom {

/// Half-open axis-aligned box: [x0, x1) x [y0, y1), pixel coordinates.
struct Box {
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;

  constexpr bool operator==(const Box&) const = default;

  [[nodiscard]] constexpr double width() const { return x1 - x0; }
  [[nodiscard]] constexpr double height() const { return y1 - y0; }
  [[nodiscard]] constexpr double area() const {
    return width() > 0.0 && height() > 0.0 ? width() * height() : 0.0;
  }
  [[nodiscard]] constexpr bool empty() const {
    return width() <= 0.0 || height() <= 0.0;
  }
  [[nodiscard]] constexpr Vec2 center() const {
    return {(x0 + x1) * 0.5, (y0 + y1) * 0.5};
  }
  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1;
  }

  /// Translate by a motion vector.
  [[nodiscard]] constexpr Box shifted(Vec2 d) const {
    return {x0 + d.x, y0 + d.y, x1 + d.x, y1 + d.y};
  }

  /// Clip to the frame rectangle [0,w) x [0,h).
  [[nodiscard]] Box clipped(double w, double h) const {
    return {std::clamp(x0, 0.0, w), std::clamp(y0, 0.0, h),
            std::clamp(x1, 0.0, w), std::clamp(y1, 0.0, h)};
  }

  [[nodiscard]] Box intersect(const Box& o) const {
    return {std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
            std::min(y1, o.y1)};
  }
};

/// Intersection-over-union; 0 when either box is empty.
double iou(const Box& a, const Box& b);

/// Bounding box of a point set (empty Box for an empty set).
Box bounding_box(const std::vector<Vec2>& points);

}  // namespace dive::geom
