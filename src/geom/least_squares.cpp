#include "geom/least_squares.h"

#include <cmath>

namespace dive::geom {

std::optional<Vec2> solve_least_squares_2(std::span<const LinearRow2> rows) {
  if (rows.size() < 2) return std::nullopt;
  // Normal equations: [saa sab; sab sbb] [u; v] = [sac; sbc].
  double saa = 0, sab = 0, sbb = 0, sac = 0, sbc = 0;
  for (const auto& r : rows) {
    saa += r.a * r.a;
    sab += r.a * r.b;
    sbb += r.b * r.b;
    sac += r.a * r.c;
    sbc += r.b * r.c;
  }
  const double det = saa * sbb - sab * sab;
  const double scale = saa + sbb;
  // Rank test relative to the magnitude of the system.
  if (std::abs(det) <= 1e-12 * scale * scale + 1e-30) return std::nullopt;
  return Vec2{(sac * sbb - sbc * sab) / det, (sbc * saa - sac * sab) / det};
}

double residual(const LinearRow2& row, Vec2 s) {
  return std::abs(row.a * s.x + row.b * s.y - row.c);
}

}  // namespace dive::geom
