// Detection boxes -> per-macroblock QP offsets, the region-of-interest
// map shared by the EAAR key-frame encode and the DDS second pass.
#pragma once

#include <algorithm>
#include <cstdint>

#include "codec/types.h"
#include "edge/detection.h"

namespace dive::baselines {

/// Offset map for a width x height frame: `background` everywhere except
/// the macroblocks touched by a detection box grown by `pad_px` on every
/// side, which stay at the base QP (offset 0).
inline codec::QpOffsetMap detection_roi_offsets(
    int width, int height, const edge::DetectionList& detections,
    double pad_px, int background) {
  const int mb_cols = width / codec::kMacroblockSize;
  const int mb_rows = height / codec::kMacroblockSize;
  codec::QpOffsetMap offsets(mb_cols, mb_rows,
                             static_cast<std::int8_t>(background));
  const double mb = codec::kMacroblockSize;
  for (const auto& det : detections) {
    const int c0 = std::max(0, static_cast<int>((det.box.x0 - pad_px) / mb));
    const int c1 =
        std::min(mb_cols - 1, static_cast<int>((det.box.x1 + pad_px) / mb));
    const int r0 = std::max(0, static_cast<int>((det.box.y0 - pad_px) / mb));
    const int r1 =
        std::min(mb_rows - 1, static_cast<int>((det.box.y1 + pad_px) / mb));
    for (int row = r0; row <= r1; ++row)
      for (int col = c0; col <= c1; ++col) offsets.at(col, row) = 0;
  }
  return offsets;
}

}  // namespace dive::baselines
