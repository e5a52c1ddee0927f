#include "geom/pinhole_camera.h"

#include <gtest/gtest.h>

namespace dive::geom {
namespace {

TEST(PinholeCamera, ProjectsEq1) {
  // Eq. (1): x = f X/Z, y = f Y/Z.
  const PinholeCamera cam(500.0, 640, 360);
  const auto p = cam.project({1.0, 0.5, 10.0});
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->x, 50.0);
  EXPECT_DOUBLE_EQ(p->y, 25.0);
}

TEST(PinholeCamera, RejectsBehindCamera) {
  const PinholeCamera cam(500.0, 640, 360);
  EXPECT_FALSE(cam.project({0, 0, -1}).has_value());
  EXPECT_FALSE(cam.project({0, 0, 0.05}).has_value());
}

TEST(PinholeCamera, PixelCenteredRoundTrip) {
  const PinholeCamera cam(400.0, 640, 480);
  const Vec2 pixel{100.0, 50.0};
  const Vec2 round = cam.to_pixel(cam.to_centered(pixel));
  EXPECT_DOUBLE_EQ(round.x, pixel.x);
  EXPECT_DOUBLE_EQ(round.y, pixel.y);
  EXPECT_EQ(cam.to_pixel({0, 0}), (Vec2{320, 240}));
}

TEST(PinholeCamera, InFrame) {
  const PinholeCamera cam(400.0, 640, 480);
  EXPECT_TRUE(cam.in_frame({0, 0}));
  EXPECT_TRUE(cam.in_frame({639.9, 479.9}));
  EXPECT_FALSE(cam.in_frame({640, 100}));
  EXPECT_FALSE(cam.in_frame({-1, 100}));
}

TEST(CameraPose, IdentityPose) {
  const CameraPose pose{};
  const Vec3 p{1, 2, 3};
  EXPECT_EQ(pose.world_to_camera(p), p);
}

TEST(CameraPose, TranslationOnly) {
  CameraPose pose;
  pose.position = {10, -1.5, 100};
  const Vec3 cam = pose.world_to_camera({11, -1.5, 105});
  EXPECT_NEAR(cam.x, 1.0, 1e-12);
  EXPECT_NEAR(cam.y, 0.0, 1e-12);
  EXPECT_NEAR(cam.z, 5.0, 1e-12);
}

TEST(CameraPose, YawRotatesView) {
  CameraPose pose;
  pose.yaw = 0.1;
  // A point dead ahead in the world appears shifted left in the camera
  // when the camera yaws right (toward +x).
  const Vec3 cam = pose.world_to_camera({0, 0, 50});
  EXPECT_LT(cam.x, 0.0);
}

TEST(CameraPose, WorldCameraRoundTrip) {
  CameraPose pose;
  pose.position = {3, -1.5, 42};
  pose.yaw = 0.3;
  pose.pitch = -0.05;
  const Vec3 p{-7, 0.2, 60};
  const Vec3 round =
      pose.camera_to_world() * pose.world_to_camera(p) + pose.position;
  EXPECT_NEAR(round.x, p.x, 1e-10);
  EXPECT_NEAR(round.y, p.y, 1e-10);
  EXPECT_NEAR(round.z, p.z, 1e-10);
}

}  // namespace
}  // namespace dive::geom
