#include "baselines/eaar.h"

#include <algorithm>

#include "baselines/roi_offsets.h"

namespace dive::baselines {

codec::EncodedFrame EaarScheme::encode_keyframe(const video::Frame& frame,
                                                std::size_t /*budget*/) {
  // EAAR does not rate-adapt: fixed QP 30 in cached-detection ROIs,
  // QP 40 elsewhere.
  const codec::QpOffsetMap offsets = detection_roi_offsets(
      frame.width(), frame.height(), last_keyframe_detections(),
      eaar_.roi_padding_px, eaar_.low_quality_qp - eaar_.high_quality_qp);
  return encoder().encode(frame, eaar_.high_quality_qp, &offsets);
}

util::SimTime EaarScheme::adjust_result_time(util::SimTime nominal,
                                             util::SimTime arrival) const {
  // Parallel streaming and inference: decoding happens per slice during
  // transfer and inference overlaps roughly half its span.
  const util::SimTime saved =
      util::from_millis(3.0) + util::from_millis(9.0);
  return std::max(arrival, nominal - saved);
}

}  // namespace dive::baselines
