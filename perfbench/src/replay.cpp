// Traced replay of core::DiveAgent::process_frame. It calls the same
// public layer functions in the same order, on components built with the
// configuration harness::make_scheme gives the agent, and wraps each call
// in a benchmark-side host timer. The caller compares its outputs with the
// untraced pass frame by frame, so the spans provably time the program
// that was measured.
#include <algorithm>

#include "bench.h"
#include "codec/encoder.h"
#include "core/agent.h"
#include "edge/server.h"
#include "net/uplink.h"
#include "roi/gate.h"
#include "roi/metadata.h"

namespace perfbench {

namespace {

/// Accumulates one named layer span per call.
class Spans {
 public:
  explicit Spans(ReplayResult& out) : out_(out) {}

  template <class Fn>
  auto time(const char* layer, Fn&& fn) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(layer, t0);
    } else {
      auto value = fn();
      add(layer, t0);
      return value;
    }
  }

 private:
  void add(const char* layer, Clock::time_point t0) {
    out_.span_ms[layer] += ms_since(t0);
  }
  ReplayResult& out_;
};

}  // namespace

ReplayResult replay_single_agent(const Workload& w,
                                 const std::vector<data::Clip>& clips) {
  ReplayResult out;
  Spans spans(out);
  const edge::ServerConfig server_cfg;
  const edge::ChromaDetector detector(server_cfg.detector);
  out.results.resize(clips.size());

  for (std::size_t c = 0; c < clips.size(); ++c) {
    const data::Clip& clip = clips[c];
    const int width = clip.camera.width();
    const int height = clip.camera.height();

    // The components make_scheme hands a DiVE agent.
    net::UplinkConfig uplink_cfg;
    uplink_cfg.propagation_delay = w.network.propagation_delay;
    uplink_cfg.head_timeout = w.network.head_timeout;
    net::Uplink uplink(
        w.network.make_trace(clip.frame_count() / clip.fps, w.options.seed),
        uplink_cfg);
    edge::EdgeServer server(server_cfg, w.options.seed);
    codec::EncoderConfig enc_cfg;
    enc_cfg.width = width;
    enc_cfg.height = height;
    enc_cfg.search.method = w.options.search;
    enc_cfg.gop_length = w.options.gop_length;
    enc_cfg.skip_blocks = w.options.skip_blocks;
    if (w.options.skip_threshold >= 0)
      enc_cfg.skip_threshold = w.options.skip_threshold;
    enc_cfg.threads = w.lanes;
    core::DiveConfig cfg;
    cfg.fps = clip.fps;
    cfg.qp.fixed_delta = w.options.fixed_delta;
    cfg.enable_offline_tracking = w.options.enable_offline_tracking;
    cfg.roi_metadata = w.options.roi_metadata;
    cfg.seed = w.options.seed;

    codec::Encoder encoder(enc_cfg);
    core::Preprocessor preprocessor(cfg.preprocess, cfg.seed);
    core::ForegroundExtractor extractor(cfg.foreground);
    core::QpAssigner qp_assigner(cfg.qp);
    core::BandwidthEstimator bandwidth(cfg.bandwidth);
    core::OfflineTracker tracker(cfg.tracker);
    roi::RoiGate gate(cfg.roi_gate, &server);
    codec::Decoder fresh;  // the closed-loop check's own decoder

    /// A delivered frame, kept for the checks after the clip.
    struct Upload {
      std::size_t frame = 0;
      std::vector<std::uint8_t> data;
      video::Frame recon;
      edge::DetectionList edge_detections;
    };
    std::vector<Upload> uploads;
    edge::DetectionList last;
    bool need_resync = false;
    const int mb_cols = width / codec::kMacroblockSize;
    const int mb_rows = height / codec::kMacroblockSize;

    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      const video::Frame& frame = clip.frames[i].image;
      const video::Frame* next =
          i + 1 < clip.frames.size() ? &clip.frames[i + 1].image : nullptr;
      const util::SimTime capture =
          util::from_seconds(clip.frames[i].timestamp);
      FrameResult r;
      const auto frame_t0 = Clock::now();

      const codec::MotionField motion = spans.time(
          "codec.analyze_motion", [&] { return encoder.analyze_motion(frame); });
      const core::PreprocessResult pre = spans.time(
          "core.preprocess", [&] { return preprocessor.run(motion, clip.camera); });
      const core::ForegroundResult fg = spans.time(
          "core.foreground", [&] { return extractor.extract(pre, clip.camera); });
      const codec::QpOffsetMap offsets = spans.time("core.qp_assign", [&] {
        auto map = qp_assigner.build_map(fg, mb_cols, mb_rows);
        (void)qp_assigner.background_delta(fg, mb_cols, mb_rows);
        return map;
      });
      const double budget_rate = spans.time("core.bandwidth", [&] {
        return bandwidth.target_bytes_per_sec(capture);
      });
      const auto target_bytes =
          static_cast<std::size_t>(std::max(1.0, budget_rate / cfg.fps));
      if (need_resync) encoder.request_intra();
      const codec::EncodedFrame encoded = spans.time("codec.encode", [&] {
        return encoder.encode_to_target(frame, target_bytes, &offsets,
                                        motion.empty() ? nullptr : &motion,
                                        next);
      });
      r.base_qp = encoded.base_qp;

      roi::RoiMetadata meta;
      std::vector<std::uint8_t> sidecar;
      if (cfg.roi_metadata) {
        sidecar = spans.time("roi.sidecar", [&] {
          meta = roi::from_encoded(encoded, width, height);
          for (const auto& region : fg.regions)
            roi::add_region(meta, region.hull, region.mean_mv);
          return meta.serialize();
        });
      }
      const std::size_t upload = encoded.bytes() + sidecar.size();
      const util::SimTime ready =
          capture + cfg.latencies.analysis + cfg.latencies.encode;
      const net::TransmitResult tx = spans.time("net.transmit", [&] {
        return uplink.transmit_with_timeout(static_cast<double>(upload), ready);
      });

      edge::InferenceResult inference;
      if (tx.delivered) {
        need_resync = false;
        r.bytes = upload;
        r.offloaded = true;
        spans.time("core.bandwidth", [&] {
          bandwidth.add_transmission(static_cast<double>(upload), tx.started,
                                     tx.sent_complete);
        });
        inference = spans.time("edge.process", [&] {
          return cfg.roi_metadata
                     ? gate.process(encoded.data, &meta, tx.arrival)
                     : server.process(encoded.data, tx.arrival);
        });
        last = inference.detections;
        r.detections = inference.detections;
        r.response = inference.result_at_agent - capture;
      } else {
        need_resync = true;
        spans.time("core.mot", [&] {
          if (cfg.enable_offline_tracking)
            last = tracker.track(last, motion, width, height);
        });
        r.detections = last;
        r.response = (tx.gave_up_at - capture) + cfg.latencies.local_track;
      }
      out.frame_ms_total += ms_since(frame_t0);

      // Outside the frame span: per-layer accounting and the checks.
      out.intra_frames += encoded.type == codec::FrameType::kIntra ? 1 : 0;
      out.rc_trials += encoder.rate_control_stats().trials_attempted;
      out.budget_bytes_sum += static_cast<double>(target_bytes);
      out.fg_area_pct_sum += 100.0 * fg.area_fraction(width, height);
      out.sidecar_bytes += static_cast<long>(sidecar.size());
      if (tx.delivered)
        uploads.push_back({i, encoded.data, encoder.reference(),
                           inference.detections});
      out.results[c].push_back(std::move(r));
    }

    // The checks run after the clip, so that their work cannot hide the
    // encoder's background motion search from the frame spans.
    for (const Upload& up : uploads) {
      video::Frame decoded;
      std::string fault = spans.time("check.decode", [&] {
        return check_closed_loop(fresh, up.data, up.recon, &decoded);
      });
      const edge::DetectionList dets =
          spans.time("check.detect", [&] { return detector.detect(decoded); });
      // Without gating the edge runs this same detector on this frame.
      if (fault.empty() && !cfg.roi_metadata &&
          !same_detections(dets, up.edge_detections))
        fault = "edge detections differ from the detector on the decode";
      if (!fault.empty()) {
        ++out.checks_failed;
        if (out.errors.size() < 20)
          out.errors.push_back("clip " + std::to_string(c) + " frame " +
                               std::to_string(up.frame) + ": " + fault);
      }
    }
  }
  return out;
}

}  // namespace perfbench
