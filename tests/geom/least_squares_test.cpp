#include "geom/least_squares.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace dive::geom {
namespace {

TEST(LeastSquares2, ExactSystem) {
  // u = 2, v = -3: rows a*u + b*v = c.
  const std::vector<LinearRow2> rows = {
      {1, 0, 2}, {0, 1, -3}, {1, 1, -1}};
  const auto sol = solve_least_squares_2(rows);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->x, 2.0, 1e-12);
  EXPECT_NEAR(sol->y, -3.0, 1e-12);
}

TEST(LeastSquares2, TooFewRows) {
  const std::vector<LinearRow2> rows = {{1, 0, 2}};
  EXPECT_FALSE(solve_least_squares_2(rows).has_value());
}

TEST(LeastSquares2, RankDeficient) {
  // All rows parallel: u + v is determined but not (u, v) individually.
  const std::vector<LinearRow2> rows = {{1, 1, 2}, {2, 2, 4}, {3, 3, 6}};
  EXPECT_FALSE(solve_least_squares_2(rows).has_value());
}

TEST(LeastSquares2, MinimizesResidualUnderNoise) {
  util::Rng rng(17);
  const Vec2 truth{0.7, -1.3};
  std::vector<LinearRow2> rows;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-5, 5);
    const double b = rng.uniform(-5, 5);
    rows.push_back({a, b, a * truth.x + b * truth.y + rng.gaussian(0, 0.05)});
  }
  const auto sol = solve_least_squares_2(rows);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->x, truth.x, 0.01);
  EXPECT_NEAR(sol->y, truth.y, 0.01);
  // The LS solution beats any perturbed solution in summed squared
  // residual.
  const auto sse = [&rows](Vec2 s) {
    double acc = 0.0;
    for (const auto& r : rows) acc += residual(r, s) * residual(r, s);
    return acc;
  };
  const double base = sse(*sol);
  for (const Vec2 perturbed :
       {Vec2{sol->x + 0.1, sol->y}, Vec2{sol->x, sol->y - 0.1}}) {
    EXPECT_LE(base, sse(perturbed));
  }
}

TEST(Residual, SingleRow) {
  const LinearRow2 row{2, 3, 10};
  EXPECT_DOUBLE_EQ(residual(row, {2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(residual(row, {0, 0}), 10.0);
}

}  // namespace
}  // namespace dive::geom
