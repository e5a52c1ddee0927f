#include "geom/box.h"

#include <gtest/gtest.h>

namespace dive::geom {
namespace {

TEST(Box, BasicGeometry) {
  const Box b{10, 20, 30, 60};
  EXPECT_DOUBLE_EQ(b.width(), 20);
  EXPECT_DOUBLE_EQ(b.height(), 40);
  EXPECT_DOUBLE_EQ(b.area(), 800);
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.center(), (Vec2{20, 40}));
}

TEST(Box, EmptyWhenInverted) {
  const Box b{10, 10, 5, 20};
  EXPECT_TRUE(b.empty());
  EXPECT_DOUBLE_EQ(b.area(), 0.0);
}

TEST(Box, ContainsHalfOpen) {
  const Box b{0, 0, 10, 10};
  EXPECT_TRUE(b.contains({0, 0}));
  EXPECT_TRUE(b.contains({9.99, 9.99}));
  EXPECT_FALSE(b.contains({10, 5}));
  EXPECT_FALSE(b.contains({-0.01, 5}));
}

TEST(Box, ShiftAndClip) {
  const Box b{0, 0, 10, 10};
  const Box s = b.shifted({-5, 3});
  EXPECT_EQ(s, (Box{-5, 3, 5, 13}));
  const Box c = s.clipped(10, 10);
  EXPECT_EQ(c, (Box{0, 3, 5, 10}));
}

TEST(Box, Intersect) {
  const Box a{0, 0, 10, 10};
  const Box b{5, 5, 15, 15};
  EXPECT_EQ(a.intersect(b), (Box{5, 5, 10, 10}));
  EXPECT_TRUE(a.intersect(Box{20, 20, 30, 30}).empty());
}

TEST(Iou, IdenticalBoxesIsOne) {
  const Box a{2, 2, 8, 8};
  EXPECT_DOUBLE_EQ(iou(a, a), 1.0);
}

TEST(Iou, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(iou({0, 0, 1, 1}, {5, 5, 6, 6}), 0.0);
}

TEST(Iou, HalfOverlap) {
  // Two 10x10 boxes overlapping in a 5x10 strip: IoU = 50/150.
  EXPECT_NEAR(iou({0, 0, 10, 10}, {5, 0, 15, 10}), 1.0 / 3.0, 1e-12);
}

TEST(Iou, EmptyBoxIsZero) {
  EXPECT_DOUBLE_EQ(iou({0, 0, 0, 0}, {0, 0, 10, 10}), 0.0);
}

TEST(Iou, SymmetricAndBounded) {
  const Box a{0, 0, 7, 3};
  const Box b{2, 1, 9, 8};
  EXPECT_DOUBLE_EQ(iou(a, b), iou(b, a));
  EXPECT_GT(iou(a, b), 0.0);
  EXPECT_LT(iou(a, b), 1.0);
}

TEST(BoundingBox, OfPoints) {
  const Box b = bounding_box({{1, 5}, {-2, 3}, {4, -1}});
  EXPECT_EQ(b, (Box{-2, -1, 4, 5}));
  EXPECT_TRUE(bounding_box({}).empty());
}

}  // namespace
}  // namespace dive::geom
