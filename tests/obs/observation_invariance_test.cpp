// Observation changes no result: attaching an ObsContext (tracer on, and
// a metric timeline for the serve scenario) must leave every field of a
// run's result bit-identical to the same run unobserved. Spans, ledger
// stages and metric rows are side outputs; none may feed back into
// encoding, scheduling, gating or scoring.
#include <gtest/gtest.h>

#include <vector>

#include "data/dataset.h"
#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "obs/obs.h"

namespace dive::harness {
namespace {

void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ap_car, b.ap_car);
  EXPECT_EQ(a.ap_ped, b.ap_ped);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.p95_response_ms, b.p95_response_ms);
  EXPECT_EQ(a.mean_kbytes_per_frame, b.mean_kbytes_per_frame);
  EXPECT_EQ(a.offload_fraction, b.offload_fraction);
  EXPECT_EQ(a.mean_base_qp, b.mean_base_qp);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.ap_car_by_state, b.ap_car_by_state);
  EXPECT_EQ(a.ap_ped_by_state, b.ap_ped_by_state);
  EXPECT_EQ(a.frames_by_state, b.frames_by_state);
}

void expect_same(const ServeScenarioResult& a, const ServeScenarioResult& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const ServeSessionResult& x = a.sessions[i];
    const ServeSessionResult& y = b.sessions[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.frames, y.frames);
    EXPECT_EQ(x.offloaded, y.offloaded);
    EXPECT_EQ(x.mot, y.mot);
    EXPECT_EQ(x.dropped_queue, y.dropped_queue);
    EXPECT_EQ(x.dropped_deadline, y.dropped_deadline);
    EXPECT_EQ(x.dropped_uplink, y.dropped_uplink);
    EXPECT_EQ(x.map, y.map);
    EXPECT_EQ(x.mean_e2e_ms, y.mean_e2e_ms);
  }
  EXPECT_EQ(a.aggregate_map, b.aggregate_map);
  EXPECT_EQ(a.offload_fraction, b.offload_fraction);
  EXPECT_EQ(a.mean_e2e_ms, b.mean_e2e_ms);
  EXPECT_EQ(a.p95_e2e_ms, b.p95_e2e_ms);
  EXPECT_EQ(a.mean_wait_ms, b.mean_wait_ms);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
  EXPECT_EQ(a.dropped_uplink, b.dropped_uplink);
  EXPECT_EQ(a.mot, b.mot);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.map_by_state[s], b.map_by_state[s]) << "state " << s;
    EXPECT_EQ(a.frames_by_state[s], b.frames_by_state[s]) << "state " << s;
  }
  EXPECT_EQ(a.gated, b.gated);
  EXPECT_EQ(a.full_inference, b.full_inference);
  EXPECT_EQ(a.propagated_boxes, b.propagated_boxes);
  EXPECT_EQ(a.sidecar_bytes, b.sidecar_bytes);
  EXPECT_EQ(a.mean_gate_work, b.mean_gate_work);
  EXPECT_EQ(a.mean_gated_pixel_fraction, b.mean_gated_pixel_fraction);
}

TEST(ObservationInvariance, DiveExperimentResultIgnoresObsContext) {
  auto spec = data::nuscenes_like(1, 24);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  const std::vector<data::Clip> clips = data::generate_dataset(spec);
  // One outage mid-clip, so the MOT fallback path is observed as well.
  NetworkScenario net;
  net.mbps = 1.5;
  net.outage_interval_s = 3.0;
  net.first_outage_s = 0.8;
  net.outage_duration_s = 0.5;

  for (const bool roi : {false, true}) {
    SCOPED_TRACE(roi ? "roi on" : "roi off");
    SchemeOptions options;
    options.roi_metadata = roi;
    const RunResult plain =
        run_experiment(SchemeKind::kDive, clips, net, options);

    obs::ObsContext ctx;
    ctx.tracer.set_enabled(true);
    options.obs = &ctx;
    const RunResult observed =
        run_experiment(SchemeKind::kDive, clips, net, options);

    EXPECT_FALSE(ctx.tracer.snapshot().empty());
    expect_same(plain, observed);
  }
}

TEST(ObservationInvariance, ServeScenarioResultIgnoresObsContext) {
  ServeScenarioOptions opt = default_serve_options();
  opt.sessions = 6;
  opt.frames_per_session = 10;
  opt.roi_metadata = true;
  const ServeScenarioResult plain = run_serve_scenario(opt);

  obs::ObsContext ctx;
  ctx.tracer.set_enabled(true);
  obs::MetricsSnapshotter timeline(&ctx.metrics, util::from_millis(250.0));
  opt.obs = &ctx;
  opt.timeline = &timeline;
  const ServeScenarioResult observed = run_serve_scenario(opt);

  EXPECT_FALSE(ctx.tracer.snapshot().empty());
  EXPECT_FALSE(ctx.ledger.records().empty());
  EXPECT_GT(observed.gated, 0);
  expect_same(plain, observed);
}

}  // namespace
}  // namespace dive::harness
