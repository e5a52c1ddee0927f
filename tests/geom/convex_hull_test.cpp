#include "geom/convex_hull.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/polygon.h"
#include "util/rng.h"

namespace dive::geom {
namespace {

bool hull_contains_all(const std::vector<Vec2>& hull,
                       const std::vector<Vec2>& points) {
  return std::all_of(points.begin(), points.end(), [&](Vec2 p) {
    return point_in_polygon(p, hull);
  });
}

TEST(ConvexHull, Square) {
  const std::vector<Vec2> pts = {
      {0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}};
  const auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_NEAR(polygon_area(hull), 16.0, 1e-12);
  EXPECT_TRUE(hull_contains_all(hull, pts));
}

TEST(ConvexHull, CollinearPointsDegenerate) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  const auto hull = convex_hull(pts);
  // Degenerate: all points on a line — no area.
  EXPECT_DOUBLE_EQ(polygon_area(hull), 0.0);
}

TEST(ConvexHull, DuplicatesRemoved) {
  const std::vector<Vec2> pts = {{0, 0}, {0, 0}, {1, 0}, {1, 0}, {0, 1}};
  const auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 3u);
}

TEST(ConvexHull, FewPointsPassThrough) {
  EXPECT_TRUE(convex_hull({}).empty());
  EXPECT_EQ(convex_hull({{1, 2}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1, 2}, {3, 4}}).size(), 2u);
}

TEST(ConvexHull, RandomPointsPropertyCheck) {
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 60; ++i)
      pts.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    const auto hull = convex_hull(pts);
    ASSERT_GE(hull.size(), 3u);
    // Convexity: every consecutive triple turns the same way.
    const std::size_t n = hull.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 a = hull[i];
      const Vec2 b = hull[(i + 1) % n];
      const Vec2 c = hull[(i + 2) % n];
      EXPECT_GT((b - a).cross(c - b), 0.0) << "trial " << trial;
    }
    EXPECT_TRUE(hull_contains_all(hull, pts)) << "trial " << trial;
  }
}

TEST(PolygonArea, Triangle) {
  EXPECT_DOUBLE_EQ(polygon_area({{0, 0}, {4, 0}, {0, 3}}), 6.0);
  // Orientation-independent.
  EXPECT_DOUBLE_EQ(polygon_area({{0, 0}, {0, 3}, {4, 0}}), 6.0);
}

}  // namespace
}  // namespace dive::geom
