// Point-in-polygon test.
//
// Foreground extraction tests macroblock centers against the ground
// convex hull to find the foreground seed set S^t (Sec. III-C1), the QP
// assigner tests them against object hulls to fill the macroblock QP
// offset map, and the RoI gate tests tile centers against sidecar hulls.
#pragma once

#include <vector>

#include "geom/vec.h"

namespace dive::geom {

/// True if `p` lies inside (or on the boundary of) the polygon.
/// Even-odd crossing rule with an explicit boundary check; vertices may be
/// in either winding order.
bool point_in_polygon(Vec2 p, const std::vector<Vec2>& polygon);

}  // namespace dive::geom
