// Self-test of the benchmark's checks: a small real run must pass every
// check, and each planted fault must be caught by the check that exists
// for it. Also confirms the sim-clock outputs do not depend on the
// encoder lane count.
#include <cstdio>

#include "bench.h"
#include "codec/encoder.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("selftest: %-58s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

/// A one-clip, reduced-resolution copy of a single-agent workload.
Workload small(const char* name, int lanes) {
  Workload w = *make_workload(name, 11, lanes);
  w.spec.clip_count = 1;
  w.spec.frames_per_clip = 40;
  w.spec.focal_px *= 192.0 / w.spec.width;
  w.spec.width = 192;
  w.spec.height = 112;
  return w;
}

CheckReport check(const Workload& w, const std::vector<data::Clip>& clips,
                  const Truths& truths, const ClipResults& results,
                  double claimed_map) {
  CheckReport report;
  check_single_agent(w, clips, truths, results, claimed_map, report);
  return report;
}

bool caught(const CheckReport& r) { return r.failed > 0 || !r.global_ok; }

void planted_stream_faults() {
  // Two frames through a fixed-QP encoder; flipping any one payload byte
  // of the inter frame must make the fresh decode reject the stream or
  // differ from the reconstruction.
  const Workload w = small("nuscenes-2mbps", 1);
  const auto clips = render_clips(w, 1);
  codec::EncoderConfig cfg;
  cfg.width = w.spec.width;
  cfg.height = w.spec.height;
  cfg.threads = 1;
  codec::Encoder encoder(cfg);
  const auto intra = encoder.encode(clips[0].frames[0].image, 30);
  const video::Frame intra_recon = encoder.reference();
  const auto inter = encoder.encode(clips[0].frames[1].image, 30);
  const video::Frame inter_recon = encoder.reference();

  codec::Decoder clean;
  bool clean_ok = check_closed_loop(clean, intra.data, intra_recon, nullptr).empty() &&
                  check_closed_loop(clean, inter.data, inter_recon, nullptr).empty();
  expect(clean_ok, "closed loop: clean bitstreams decode to the recon");

  bool all_caught = true;
  for (std::size_t at = 8; at < inter.data.size(); at += inter.data.size() / 7 + 1) {
    codec::Decoder fresh;
    (void)check_closed_loop(fresh, intra.data, intra_recon, nullptr);
    std::vector<std::uint8_t> bad = inter.data;
    bad[at] ^= 0x5A;
    all_caught = all_caught &&
                 !check_closed_loop(fresh, bad, inter_recon, nullptr).empty();
  }
  expect(all_caught, "planted: flipped bitstream byte is caught");
}

void planted_output_faults() {
  const Workload w = small("robotcar-outage-roi", 2);
  const auto clips = render_clips(w, 1);
  const Truths truths = raw_detections(clips);
  const ClipResults results = run_single_agent(w, clips, nullptr, nullptr);
  const harness::RunResult claim = harness::run_experiment(
      harness::SchemeKind::kDive, clips, w.network, w.options);

  const CheckReport clean = check(w, clips, truths, results, claim.map);
  for (const auto& e : clean.errors) std::printf("  %s\n", e.c_str());
  expect(!caught(clean), "clean run passes every check");
  long mot = 0;
  for (const auto& r : results[0]) mot += r.offloaded ? 0 : 1;
  expect(mot > 0 && mot < static_cast<long>(results[0].size()),
         "the small outage run has both offloaded and MOT frames");

  const ReplayResult replay = replay_single_agent(w, clips);
  long diverged = 0;
  for (std::size_t i = 0; i < results[0].size(); ++i)
    diverged += same_frame(results[0][i], replay.results[0][i]) ? 0 : 1;
  expect(diverged == 0 && replay.checks_failed == 0,
         "traced replay equals the untraced pass frame for frame");

  // Shifted detection box: the first offloaded frame that holds a
  // detection has its first box moved by its own width.
  ClipResults shifted = results;
  bool planted = false;
  for (auto& r : shifted[0]) {
    if (r.offloaded && !r.detections.empty()) {
      geom::Box& b = r.detections.front().box;
      const double dx = b.x1 - b.x0;
      b.x0 += dx;
      b.x1 += dx;
      planted = true;
      break;
    }
  }
  expect(planted && caught(check(w, clips, truths, shifted, claim.map)),
         "planted: shifted detection box is caught");

  // Response below the modelled floor on one offloaded frame.
  ClipResults early = results;
  const LatencyFloor floor = latency_floor(w);
  for (auto& r : early[0]) {
    if (r.offloaded) {
      r.response = util::from_millis(
          floor.offloaded_ms(static_cast<double>(r.bytes)) - 1.0);
      break;
    }
  }
  expect(caught(check(w, clips, truths, early, claim.map)),
         "planted: response below the modelled floor is caught");

  // A MOT frame answered faster than the outage detector can fire.
  ClipResults quick_mot = results;
  for (auto& r : quick_mot[0]) {
    if (!r.offloaded) {
      r.response = util::from_millis(floor.mot_ms() - 1.0);
      break;
    }
  }
  expect(caught(check(w, clips, truths, quick_mot, claim.map)),
         "planted: MOT response below the timeout floor is caught");

  // A frame missing from the outcome count.
  ClipResults missing = results;
  missing[0].pop_back();
  expect(caught(check(w, clips, truths, missing, claim.map)),
         "planted: frame missing from the outcome count is caught");

  // Sim-clock outputs are identical for every encoder lane count.
  Workload serial = w;
  serial.lanes = 1;
  setenv("DIVE_THREADS", "1", 1);
  const ClipResults one_lane = run_single_agent(serial, clips, nullptr, nullptr);
  setenv("DIVE_THREADS", "2", 1);
  bool same = one_lane[0].size() == results[0].size();
  for (std::size_t i = 0; same && i < results[0].size(); ++i)
    same = same_frame(one_lane[0][i], results[0][i]);
  expect(same, "one encoder lane reproduces the two-lane outputs");
}

}  // namespace

int run_selftest() {
  setenv("DIVE_THREADS", "2", 1);
  planted_stream_faults();
  planted_output_faults();
  std::printf("selftest: %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
