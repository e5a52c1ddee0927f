// Pinhole camera model and rigid camera pose (Sec. II-C of the paper).
//
// Conventions (match the paper's equations):
//  * Camera frame: x right, y DOWN, z forward (optical axis).
//  * Image coordinates are *centered*: the principal point is (0, 0), so a
//    camera-frame point (X, Y, Z) projects to (f X / Z, f Y / Z) — Eq. (1).
//  * Pixel coordinates put the origin at the top-left of the frame;
//    `to_pixel` / `to_centered` convert between the two.
//  * World frame: also y-down. The ground plane lies at Y = +camera_height,
//    i.e. "the same height" in the paper's Observation 2 means equal
//    world-frame Y.
#pragma once

#include <optional>

#include "geom/vec.h"

namespace dive::geom {

/// Rigid pose of a camera in the world: position plus pitch (about x) and
/// yaw (about y). Roll is not modelled — the paper's agents are wheeled
/// vehicles (Δφz = 0 in Eq. (6)).
struct CameraPose {
  Vec3 position;        ///< camera center in world coordinates
  double pitch = 0.0;   ///< rotation about camera x-axis, radians
  double yaw = 0.0;     ///< rotation about camera y-axis, radians

  /// Rotation taking camera-frame directions to world-frame directions.
  [[nodiscard]] Mat3 camera_to_world() const {
    return Mat3::rot_y(yaw) * Mat3::rot_x(pitch);
  }

  /// Transform a world point into this camera's frame.
  [[nodiscard]] Vec3 world_to_camera(Vec3 p_world) const {
    return camera_to_world().transpose() * (p_world - position);
  }
};

class PinholeCamera {
 public:
  PinholeCamera(double focal_px, int width, int height)
      : f_(focal_px), width_(width), height_(height) {}

  [[nodiscard]] double focal() const { return f_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  /// Project a camera-frame point to centered image coordinates (Eq. 1).
  /// Empty when the point is at or behind the image plane (Z <= z_near).
  [[nodiscard]] std::optional<Vec2> project(Vec3 p_cam,
                                            double z_near = 0.1) const {
    if (p_cam.z <= z_near) return std::nullopt;
    return Vec2{f_ * p_cam.x / p_cam.z, f_ * p_cam.y / p_cam.z};
  }

  /// Centered image coords -> pixel coords (origin at top-left).
  [[nodiscard]] Vec2 to_pixel(Vec2 centered) const {
    return {centered.x + width_ / 2.0, centered.y + height_ / 2.0};
  }
  /// Pixel coords -> centered image coords.
  [[nodiscard]] Vec2 to_centered(Vec2 pixel) const {
    return {pixel.x - width_ / 2.0, pixel.y - height_ / 2.0};
  }

  [[nodiscard]] bool in_frame(Vec2 pixel) const {
    return pixel.x >= 0.0 && pixel.x < width_ && pixel.y >= 0.0 &&
           pixel.y < height_;
  }

 private:
  double f_;
  int width_;
  int height_;
};

}  // namespace dive::geom
