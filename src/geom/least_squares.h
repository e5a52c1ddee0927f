// Dense least-squares solvers for small systems.
//
// DiVE's rotational-component elimination (Sec. III-B3) solves the
// over-determined linear system of Eq. (7):
//     x_q f Δφx + y_q f Δφy = y_q vx_q - x_q vy_q
// one equation per selected motion vector, two unknowns. We solve via the
// normal equations, which is robust at this size.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geom/vec.h"

namespace dive::geom {

/// One row of a 2-unknown linear system: a*u + b*v = c.
struct LinearRow2 {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

/// Least-squares solution (u, v) of an over-determined 2-unknown system.
/// Empty when the system is rank-deficient (all rows parallel).
std::optional<Vec2> solve_least_squares_2(std::span<const LinearRow2> rows);

/// Residual |a*u + b*v - c| of one row at a candidate solution.
double residual(const LinearRow2& row, Vec2 solution);

}  // namespace dive::geom
