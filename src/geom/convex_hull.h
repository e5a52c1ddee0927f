// Convex hull construction.
//
// The paper generates convex hulls twice: for the estimated ground region
// and for each merged foreground cluster (Sec. III-C), citing Sklansky's
// linear-time polygon hull. Both inputs are unordered macroblock point
// sets, not simple polygons in vertex order, so the pipeline uses
// Andrew's monotone chain.
#pragma once

#include <vector>

#include "geom/vec.h"

namespace dive::geom {

/// Andrew's monotone chain over an unordered point set. Returns hull
/// vertices in counter-clockwise order (in a y-down frame this appears
/// clockwise on screen). Collinear boundary points are dropped. Degenerate
/// inputs (<3 distinct points) return the distinct points.
std::vector<Vec2> convex_hull(std::vector<Vec2> points);

/// Area of a simple polygon (shoelace, absolute value).
double polygon_area(const std::vector<Vec2>& polygon);

}  // namespace dive::geom
