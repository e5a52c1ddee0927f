#include "video/frame.h"

#include <gtest/gtest.h>

namespace dive::video {
namespace {

TEST(Plane, DefaultAndFill) {
  Plane p(8, 4, 77);
  EXPECT_EQ(p.size(), 32u);
  EXPECT_EQ(p.at(0, 0), 77);
  EXPECT_EQ(p.at(7, 3), 77);
}

TEST(Plane, ClampedAccess) {
  Plane p(4, 4);
  p.at(0, 0) = 10;
  p.at(3, 3) = 20;
  EXPECT_EQ(p.at_clamped(-5, -5), 10);
  EXPECT_EQ(p.at_clamped(100, 100), 20);
  EXPECT_EQ(p.at_clamped(0, 100), p.at(0, 3));
}

TEST(Frame, ChromaHalfResolution) {
  Frame f(64, 32);
  EXPECT_EQ(f.width(), 64);
  EXPECT_EQ(f.height(), 32);
  EXPECT_EQ(f.u.width, 32);
  EXPECT_EQ(f.u.height, 16);
  EXPECT_EQ(f.v.width, 32);
  EXPECT_EQ(f.v.height, 16);
}

TEST(Frame, DefaultPixelValues) {
  Frame f(16, 16);
  EXPECT_EQ(f.y.at(5, 5), 16);    // dark luma
  EXPECT_EQ(f.u.at(2, 2), 128);   // neutral chroma
  EXPECT_EQ(f.v.at(2, 2), 128);
}

TEST(Frame, EqualityAndEmpty) {
  Frame a(16, 16), b(16, 16);
  EXPECT_EQ(a, b);
  b.y.at(0, 0) = 99;
  EXPECT_NE(a, b);
  EXPECT_TRUE(Frame().empty());
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace dive::video
