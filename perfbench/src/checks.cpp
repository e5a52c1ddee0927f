// Output checks. Each one rests on a property the method must have or on
// a computation made here, apart from the program — never on a saved
// copy of an earlier output.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "edge/server.h"
#include "net/bandwidth.h"
#include "roi/gate.h"
#include "util/stats.h"

namespace perfbench {

namespace {

template <class... Args>
std::string fmt(const char* f, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

double box_iou(const geom::Box& a, const geom::Box& b) {
  const double ix = std::min(a.x1, b.x1) - std::max(a.x0, b.x0);
  const double iy = std::min(a.y1, b.y1) - std::max(a.y0, b.y0);
  if (ix <= 0.0 || iy <= 0.0) return 0.0;
  const double inter = ix * iy;
  const double area_a = (a.x1 - a.x0) * (a.y1 - a.y0);
  const double area_b = (b.x1 - b.x0) * (b.y1 - b.y0);
  return inter / (area_a + area_b - inter);
}

}  // namespace

LatencyFloor latency_floor(const Workload& w) {
  LatencyFloor f;
  const edge::ServerConfig server =
      w.kind == Kind::kServe ? w.serve.node.server : edge::ServerConfig{};
  const core::AgentLatencies agent =
      w.kind == Kind::kServe ? w.serve.latencies : core::AgentLatencies{};
  const bool roi = w.kind == Kind::kServe ? w.serve.roi_metadata
                                          : w.options.roi_metadata;
  const double work_floor =
      roi ? (w.kind == Kind::kServe ? w.serve.node.session.roi_gate
                                    : roi::RoiGateConfig{})
                .min_work_fraction
          : 1.0;
  const double mbps = w.kind == Kind::kServe ? w.serve.mbps : w.network.mbps;
  const double depth =
      w.kind == Kind::kServe ? 0.0 : w.network.fluctuation_depth;
  f.agent_ms = util::to_millis(agent.analysis + agent.encode);
  f.peak_bytes_per_ms = net::mbps_to_bytes_per_sec(mbps) * (1.0 + depth) / 1e3;
  f.propagation_ms = util::to_millis(w.kind == Kind::kServe
                                         ? w.serve.propagation_delay
                                         : w.network.propagation_delay);
  f.edge_min_ms = util::to_millis(server.decode_latency) +
                  work_floor * util::to_millis(server.inference_latency);
  f.jitter_ms = server.inference_jitter_ms;
  f.downlink_ms = util::to_millis(server.downlink_delay);
  f.head_timeout_ms = util::to_millis(w.kind == Kind::kServe
                                          ? w.serve.head_timeout
                                          : w.network.head_timeout);
  f.local_track_ms = util::to_millis(agent.local_track);
  return f;
}

// Sim time is integer microseconds and the program rounds scaled
// latencies to the microsecond, so a floor may be undercut by one tick.
constexpr double kTickMs = 0.002;

std::string check_response(const FrameResult& r, const LatencyFloor& floor) {
  const double ms = util::to_millis(r.response);
  const double min_ms = r.offloaded
                            ? floor.offloaded_ms(static_cast<double>(r.bytes))
                            : floor.mot_ms();
  if (!std::isfinite(ms) || ms + kTickMs < min_ms)
    return fmt("response %.3f ms below the modelled floor %.3f ms", ms, min_ms);
  if (r.offloaded != (r.bytes > 0))
    return "offloaded flag disagrees with the uploaded bytes";
  return {};
}

std::string check_boxes(const edge::DetectionList& dets, int width,
                        int height) {
  for (const auto& d : dets) {
    const geom::Box& b = d.box;
    const bool inside = std::isfinite(b.x0) && std::isfinite(b.y0) &&
                        std::isfinite(b.x1) && std::isfinite(b.y1) &&
                        b.x0 >= 0.0 && b.y0 >= 0.0 && b.x1 <= width &&
                        b.y1 <= height && b.x0 < b.x1 && b.y0 < b.y1;
    if (!inside)
      return fmt("detection box (%.1f, %.1f, ...) outside the frame", b.x0,
                 b.y0);
    if (!(d.confidence >= 0.0 && d.confidence <= 1.0))
      return fmt("confidence %.3f outside [0, 1]", d.confidence);
  }
  return {};
}

std::string check_closed_loop(codec::Decoder& fresh,
                              std::span<const std::uint8_t> data,
                              const video::Frame& recon,
                              video::Frame* decoded) {
  std::string error;
  std::optional<codec::DecodedFrame> out = fresh.try_decode(data, &error);
  if (!out) return "fresh decoder rejected an uploaded bitstream: " + error;
  const bool same = out->frame == recon;
  if (decoded != nullptr) *decoded = std::move(out->frame);
  if (!same) return "fresh decode differs from the encoder's reconstruction";
  return {};
}

std::string check_conservation(long captured, long outcomes, long offloaded,
                               long mot) {
  if (outcomes != captured)
    return fmt("%ld outcomes for %ld captured frames", outcomes, captured);
  if (offloaded + mot != captured)
    return fmt("offloaded + MOT = %ld, captured = %ld", offloaded + mot,
               captured);
  return {};
}

double reference_map(const std::vector<const edge::DetectionList*>& detections,
                     const std::vector<const edge::DetectionList*>& truths) {
  double sum = 0.0;
  int classes = 0;
  for (int c = 0; c < video::kNumDetectableClasses; ++c) {
    const auto cls = static_cast<video::ObjectClass>(c);
    std::vector<std::pair<double, bool>> scored;  // (confidence, true positive)
    long gt_total = 0;
    for (std::size_t f = 0; f < detections.size(); ++f) {
      std::vector<geom::Box> gt;
      for (const auto& t : *truths[f])
        if (t.cls == cls) gt.push_back(t.box);
      gt_total += static_cast<long>(gt.size());
      std::vector<const edge::Detection*> dets;
      for (const auto& d : *detections[f])
        if (d.cls == cls) dets.push_back(&d);
      std::stable_sort(dets.begin(), dets.end(),
                       [](const edge::Detection* a, const edge::Detection* b) {
                         return a->confidence > b->confidence;
                       });
      std::vector<char> taken(gt.size(), 0);
      for (const edge::Detection* d : dets) {
        double best = 0.0;
        std::size_t at = gt.size();
        for (std::size_t g = 0; g < gt.size(); ++g) {
          const double v = taken[g] ? 0.0 : box_iou(d->box, gt[g]);
          if (v > best) {
            best = v;
            at = g;
          }
        }
        const bool tp = at < gt.size() && best >= 0.5;
        if (tp) taken[at] = 1;
        scored.emplace_back(d->confidence, tp);
      }
    }
    if (gt_total == 0) continue;
    // Tied confidences are common (the detector clamps its score to 1),
    // and AP depends on their order. edge::ApEvaluator orders them as std::sort
    // leaves them, so the reference does the same; a stable order moves
    // the mAP in the third decimal.
    std::sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    // Precision at each rank, then the right-to-left maximum envelope,
    // integrated over recall steps (all-point interpolation).
    std::vector<double> precision(scored.size());
    std::vector<double> recall(scored.size());
    long tp = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      tp += scored[i].second ? 1 : 0;
      precision[i] = static_cast<double>(tp) / static_cast<double>(i + 1);
      recall[i] = static_cast<double>(tp) / static_cast<double>(gt_total);
    }
    for (std::size_t i = scored.size(); i-- > 1;)
      precision[i - 1] = std::max(precision[i - 1], precision[i]);
    double ap = 0.0;
    double prev = 0.0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      ap += (recall[i] - prev) * precision[i];
      prev = recall[i];
    }
    sum += ap;
    ++classes;
  }
  return classes > 0 ? sum / classes : 0.0;
}

void CheckReport::frame_failed(const std::string& why) {
  ++failed;
  if (errors.size() < 20) errors.push_back(why);
}

void CheckReport::global_failed(const std::string& why) {
  global_ok = false;
  errors.push_back(why);
}

void check_single_agent(const Workload& w, const std::vector<data::Clip>& clips,
                        const Truths& truths, const ClipResults& results,
                        double claimed_map, CheckReport& report) {
  const LatencyFloor floor = latency_floor(w);
  long captured = 0;
  long outcomes = 0;
  long offloaded = 0;
  long mot = 0;
  std::vector<const edge::DetectionList*> dets;
  std::vector<const edge::DetectionList*> gts;
  for (std::size_t c = 0; c < clips.size(); ++c) {
    captured += clips[c].frame_count();
    if (c >= results.size()) continue;
    for (std::size_t i = 0; i < results[c].size(); ++i) {
      const FrameResult& r = results[c][i];
      ++outcomes;
      (r.offloaded ? offloaded : mot) += 1;
      std::string why = check_response(r, floor);
      if (why.empty())
        why = check_boxes(r.detections, clips[c].camera.width(),
                          clips[c].camera.height());
      if (!why.empty()) {
        report.frame_failed("clip " + std::to_string(c) + " frame " +
                            std::to_string(i) + ": " + why);
      }
      if (i < truths[c].size()) {
        dets.push_back(&r.detections);
        gts.push_back(&truths[c][i]);
      }
    }
  }
  const std::string why =
      check_conservation(captured, outcomes, offloaded, mot);
  if (!why.empty()) report.global_failed("conservation: " + why);
  const double ours = reference_map(dets, gts);
  if (!(std::abs(ours - claimed_map) <= 1e-9))
    report.global_failed(fmt("map: program %.12f, independent AP %.12f",
                             claimed_map, ours));
}

void check_serve(const Workload& w, const harness::ServeScenarioResult& r,
                 const std::vector<obs::FrameRecord>& ledger,
                 CheckReport& report) {
  const LatencyFloor floor = latency_floor(w);
  const long frames =
      static_cast<long>(w.serve.sessions) * w.serve.frames_per_session;
  long completed = 0;
  long queue = 0;
  long deadline = 0;
  long uplink = 0;
  for (const obs::FrameRecord& f : ledger) {
    const std::string where = "session " + std::to_string(f.ctx.session_id) +
                              " frame " + std::to_string(f.ctx.frame_index) +
                              ": ";
    const double e2e = f.e2e_ms();
    std::string why;
    switch (f.outcome) {
      case obs::FrameOutcome::kCompleted:
      case obs::FrameOutcome::kCompletedLate: {
        ++completed;
        // The serialization interval stands in for bytes / peak rate.
        const double min_ms = floor.agent_ms +
                              f.stage_ms(obs::FrameStage::kTransmit) +
                              floor.propagation_ms + floor.edge_min_ms -
                              floor.jitter_ms + floor.downlink_ms;
        if (e2e + kTickMs < min_ms)
          why = fmt("response %.3f ms below the modelled floor %.3f ms", e2e,
                    min_ms);
        break;
      }
      case obs::FrameOutcome::kDroppedUplink:
        ++uplink;
        if (e2e + floor.local_track_ms + kTickMs < floor.mot_ms())
          why = fmt("MOT response %.3f ms below the floor %.3f ms",
                    e2e + floor.local_track_ms, floor.mot_ms());
        break;
      case obs::FrameOutcome::kDroppedQueue:
        ++queue;
        why = "refused by admission (queue full)";
        break;
      case obs::FrameOutcome::kDroppedDeadline:
        ++deadline;
        why = "refused by admission (deadline)";
        break;
      case obs::FrameOutcome::kPending:
        why = "no terminal outcome";
        break;
    }
    if (why.empty() && std::abs(f.attributed_ms() - e2e) > 1e-6)
      why = fmt("ledger attributes %.3f of %.3f ms", f.attributed_ms(), e2e);
    if (!why.empty()) report.frame_failed(where + why);
  }
  const std::string why = check_conservation(
      frames, static_cast<long>(ledger.size()), completed,
      queue + deadline + uplink);
  if (!why.empty()) report.global_failed("conservation: " + why);
  if (completed != r.completed || queue != r.dropped_queue ||
      deadline != r.dropped_deadline || uplink != r.dropped_uplink ||
      r.frames != frames)
    report.global_failed("ledger outcome counts disagree with the result");
  if (!(r.aggregate_map >= 0.0 && r.aggregate_map <= 1.0))
    report.global_failed(fmt("map %.6f outside [0, 1]", r.aggregate_map));
}

}  // namespace perfbench
