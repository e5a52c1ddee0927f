#include "edge/server.h"

#include <cmath>

#include "obs/obs.h"

namespace dive::edge {

InferenceResult EdgeServer::process(std::span<const std::uint8_t> data,
                                    util::SimTime arrival) {
  InferenceResult result;
  codec::DecodedFrame decoded = decoder_.decode(data);
  result.decoded = std::move(decoded.frame);
  result.detections = detector_.detect(result.decoded);
  result.result_at_agent = respond(arrival, result.detections.size());
  return result;
}

util::SimTime EdgeServer::respond(util::SimTime arrival,
                                  std::size_t detections, double work) {
  const util::SimTime inference = static_cast<util::SimTime>(std::llround(
      static_cast<double>(config_.inference_latency) * work));
  const util::SimTime served = arrival + config_.decode_latency + inference +
                               inference_jitter(processed_++);
  const util::SimTime result_at_agent = served + config_.downlink_delay;

  if (obs_ != nullptr) {
    obs_->metrics.counter("edge.frames").add();
    obs_->metrics.counter("edge.detections")
        .add(static_cast<std::int64_t>(detections));
    obs_->metrics.distribution("edge.service_ms", "ms")
        .add(util::to_millis(result_at_agent - arrival));
    const std::uint64_t flow = frame_ctx_.flow_id();
    obs_->tracer.span_at("edge.process", obs::kTrackEdge, arrival, served,
                         {{"detections", static_cast<long long>(detections)}},
                         flow);
    obs_->tracer.span_at("edge.downlink", obs::kTrackEdge, served,
                         result_at_agent, {}, flow);
  }
  return result_at_agent;
}

DetectionList EdgeServer::decode_and_detect(
    std::span<const std::uint8_t> data) {
  return detector_.detect(decode(data).frame);
}

codec::DecodedFrame EdgeServer::decode(std::span<const std::uint8_t> data) {
  codec::DecodedFrame decoded = decoder_.decode(data);
  if (obs_ != nullptr) obs_->metrics.counter("edge.decodes").add();
  return decoded;
}

util::SimTime EdgeServer::inference_jitter(std::uint64_t frame_index) const {
  util::Rng stream = rng_.fork(frame_index);
  return util::from_millis(stream.uniform(-config_.inference_jitter_ms,
                                          config_.inference_jitter_ms));
}

}  // namespace dive::edge
