#include "geom/vec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace dive::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2};
  const Vec2 b{3, -4};
  EXPECT_EQ(a + b, (Vec2{4, -2}));
  EXPECT_EQ(a - b, (Vec2{-2, 6}));
  EXPECT_EQ(a * 2.0, (Vec2{2, 4}));
  EXPECT_EQ(2.0 * a, (Vec2{2, 4}));
  EXPECT_EQ(b / 2.0, (Vec2{1.5, -2}));
}

TEST(Vec2, DotCrossNorm) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1, 0}), 3.0);
  EXPECT_DOUBLE_EQ((Vec2{1, 0}.cross({0, 1})), 1.0);
  EXPECT_DOUBLE_EQ((Vec2{0, 1}.cross({1, 0})), -1.0);
}

TEST(Vec2, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{}));
  const Vec2 n = Vec2{0, 5}.normalized();
  EXPECT_DOUBLE_EQ(n.norm(), 1.0);
  EXPECT_DOUBLE_EQ(n.y, 1.0);
}

TEST(Vec3, CrossProductOrthogonal) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  EXPECT_EQ(x.cross(y), (Vec3{0, 0, 1}));
  EXPECT_EQ(y.cross(x), (Vec3{0, 0, -1}));
  const Vec3 a{1, 2, 3};
  const Vec3 b{-2, 1, 4};
  EXPECT_NEAR(a.cross(b).dot(a), 0.0, 1e-12);
  EXPECT_NEAR(a.cross(b).dot(b), 0.0, 1e-12);
}

TEST(Mat3, IdentityIsNoOp) {
  const Vec3 v{1, -2, 3};
  EXPECT_EQ(Mat3{} * v, v);  // default-constructed is the identity
}

TEST(Mat3, RotYMovesZTowardX) {
  const Mat3 r = Mat3::rot_y(std::numbers::pi / 2.0);
  const Vec3 v = r * Vec3{0, 0, 1};
  EXPECT_NEAR(v.x, 1.0, 1e-12);
  EXPECT_NEAR(v.y, 0.0, 1e-12);
  EXPECT_NEAR(v.z, 0.0, 1e-12);
}

TEST(Mat3, RotXMovesZTowardNegY) {
  const Mat3 r = Mat3::rot_x(std::numbers::pi / 2.0);
  const Vec3 v = r * Vec3{0, 0, 1};
  EXPECT_NEAR(v.y, -1.0, 1e-12);
  EXPECT_NEAR(v.z, 0.0, 1e-12);
}

TEST(Mat3, TransposeInvertsRotation) {
  const Mat3 r = Mat3::rot_y(0.3) * Mat3::rot_x(-0.2);
  const Vec3 v{0.5, -1.5, 2.0};
  const Vec3 round = r.transpose() * (r * v);
  EXPECT_NEAR(round.x, v.x, 1e-12);
  EXPECT_NEAR(round.y, v.y, 1e-12);
  EXPECT_NEAR(round.z, v.z, 1e-12);
}

TEST(Mat3, CompositionAssociativity) {
  const Mat3 a = Mat3::rot_y(0.4);
  const Mat3 b = Mat3::rot_x(0.7);
  const Vec3 v{1, 2, 3};
  const Vec3 lhs = (a * b) * v;
  const Vec3 rhs = a * (b * v);
  EXPECT_NEAR(lhs.x, rhs.x, 1e-12);
  EXPECT_NEAR(lhs.y, rhs.y, 1e-12);
  EXPECT_NEAR(lhs.z, rhs.z, 1e-12);
}

}  // namespace
}  // namespace dive::geom
