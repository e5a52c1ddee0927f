// Rotational-component estimation from motion vectors (Sec. III-B3).
//
// For a forward-translating, pitch/yaw-rotating agent, eliminating the
// unknown depth from the combined MV model (Eq. 6) yields one linear
// equation per motion vector in the two rotational speeds (Eq. 7):
//     (x f) dphi_x + (y f) dphi_y = y*vx - x*vy .
// The estimator picks the k motion vectors closest to the FOE
// ("R-sampling": those MVs have the smallest translational component and
// are the most rotation-sensitive) and solves the over-determined system
// with RANSAC.
#pragma once

#include <optional>
#include <vector>

#include "codec/types.h"
#include "core/motion_model.h"
#include "geom/pinhole_camera.h"
#include "geom/ransac.h"
#include "util/rng.h"

namespace dive::core {

enum class SamplingPolicy {
  kRSampling,  ///< k MVs nearest the FOE (the paper's method)
  kRandom,     ///< k uniformly random MVs (the Fig. 7 baseline)
};

struct RotationEstimatorConfig {
  SamplingPolicy policy = SamplingPolicy::kRSampling;
  int sample_count = 70;  ///< k; the paper settles on 70 (Fig. 10)
  geom::Vec2 foe{0.0, 0.0};  ///< FOE, centered coordinates (principal point)
  /// RANSAC knobs: residual is the tangential MV mismatch in pixels.
  int ransac_iterations = 80;
  double inlier_threshold_px = 1.0;
  /// Reject estimates whose consensus covers less than this fraction of
  /// the sampled rows (no usable static structure in the sample).
  double min_inlier_fraction = 0.2;

  /// MVs shorter than this are skipped. Default 0: even a zero MV is a
  /// valid measurement ("no apparent rotation at this block"), and near
  /// the FOE the static background's MVs are legitimately tiny — dropping
  /// them would leave mostly moving-object vectors in the sample.
  double min_mv_magnitude = 0.0;
  /// MVs with a component at/above this are treated as saturated by the
  /// codec's search window and discarded (true motion exceeded the range,
  /// so the vector's value is arbitrary). Keep just under the encoder's
  /// MotionSearchConfig::range.
  double saturation_limit_px = 23.0;
  /// Rows with |y| below this contribute almost nothing to the yaw
  /// estimate (their Eq. (7) coefficient on dphi_y vanishes), so
  /// R-sampling reserves half the sample for blocks with |y| above it.
  /// Wide-short sensors (KITTI's 1242x375) are degenerate without this.
  double y_diversity_px = 10.0;
};

struct RotationEstimate {
  Rotation rotation;   ///< radians per frame interval
  int inliers = 0;
  int samples_used = 0;
};

class RotationEstimator {
 public:
  RotationEstimator(RotationEstimatorConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  [[nodiscard]] const RotationEstimatorConfig& config() const {
    return config_;
  }

  /// Estimates (dphi_x, dphi_y) from the frame's motion field. Returns
  /// nullopt when fewer than 3 usable vectors exist or RANSAC finds no
  /// consensus.
  std::optional<RotationEstimate> estimate(const codec::MotionField& field,
                                           const geom::PinholeCamera& camera);

 private:
  RotationEstimatorConfig config_;
  util::Rng rng_;
};

}  // namespace dive::core
