// Workload definitions, input rendering and digest, and the timed
// single-agent pass.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.h"
#include "edge/evaluator.h"
#include "edge/server.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// SplitMix64: derives the program's seeds from the workload seed, so
/// every workload draws distinct inputs from the same --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Both presets draw about a quarter stop-and-go, a fifth turning and the
/// rest straight clips.
const std::vector<Drive> kPresetMix = {Drive::kStraight, Drive::kStopAndGo,
                                       Drive::kStraight, Drive::kTurning};

/// run_serve_scenario renders its pool from its own seed, so the pool's
/// drive mix cannot be set clip by clip. Instead the first seed derived
/// from `seed` whose pool holds exactly the expected number of
/// stop-and-go and turning clips is taken. The profile draw mirrors
/// data::generate_clip: clip i's stream is Rng(seed).fork(i), whose
/// second uniform picks the profile (the first is the speed).
std::uint64_t stratified_pool_seed(std::uint64_t seed,
                                   const harness::ServeScenarioOptions& o) {
  const int stop_target =
      static_cast<int>(std::lround(o.clip_pool * o.stop_and_go_fraction));
  const int turn_target =
      static_cast<int>(std::lround(o.clip_pool * o.turning_fraction));
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t candidate = mix(seed, 5 + k);
    int stop = 0;
    int turn = 0;
    for (int i = 0; i < o.clip_pool; ++i) {
      util::Rng rng = util::Rng(candidate).fork(static_cast<std::uint64_t>(i));
      (void)rng.uniform(6.0, 13.0);
      const double draw = rng.uniform(0.0, 1.0);
      if (draw < o.stop_and_go_fraction)
        ++stop;
      else if (draw < o.stop_and_go_fraction + o.turning_fraction)
        ++turn;
    }
    if (stop == stop_target && turn == turn_target) return candidate;
  }
}

}  // namespace

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "nuscenes-2mbps", "robotcar-outage-roi", "serve-14-roi"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, int lanes) {
  // The seed draws the clips. The network trace and the edge jitter keep
  // the harness's default seed: like a recorded link trace they are part
  // of the workload, and a churning link drawn anew per seed moves p50
  // response on the outage workload by 18% between seeds.
  Workload w;
  w.name = name;
  w.lanes = lanes;
  if (name == "nuscenes-2mbps") {
    // The paper's headline path: every frame offloaded over a steady
    // link, full-frame edge inference.
    w.spec = data::nuscenes_like(4, 72, mix(seed, 1));
    w.drives = kPresetMix;
    w.network.mbps = 2.0;
    w.options.roi_metadata = false;
  } else if (name == "robotcar-outage-roi") {
    // A churning link with periodic outages: bandwidth estimation, the
    // head-of-line outage detector, MOT fallback and the RoI gate.
    w.spec = data::robotcar_like(4, 96, mix(seed, 3));
    w.drives = kPresetMix;
    w.network.mbps = 1.5;
    w.network.fluctuation_depth = 0.5;
    w.network.outage_interval_s = 3.0;
    w.network.outage_duration_s = 1.0;
    w.network.first_outage_s = 2.0;
    w.options.roi_metadata = true;
  } else if (name == "serve-14-roi") {
    // Fourteen agents keep one edge node busy, just below the knee: at
    // sixteen its batches are full and p50 response swings by a third
    // from seed to seed as the offered work shifts by a few percent.
    w.kind = Kind::kServe;
    w.serve = harness::default_serve_options();
    w.serve.sessions = 14;
    w.serve.frames_per_session = 96;
    w.serve.clip_pool = 14;  // every agent plays its own clip
    w.serve.mbps = 2.0;
    w.serve.roi_metadata = true;
    w.serve.encoder_threads = 1;
    w.serve.seed = stratified_pool_seed(seed, w.serve);
    // The pool run_serve_scenario renders (mirrors its spec).
    w.spec.width = w.serve.width;
    w.spec.height = w.serve.height;
    w.spec.focal_px = 403.0 * w.serve.width / 512.0;
    w.spec.clip_count = std::max(1, w.serve.clip_pool);
    w.spec.frames_per_clip = w.serve.frames_per_session;
    w.spec.stop_and_go_fraction = w.serve.stop_and_go_fraction;
    w.spec.turning_fraction = w.serve.turning_fraction;
    w.spec.seed = w.serve.seed;
    w.setup_reps = 5;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<data::Clip> render_clips(const Workload& w, int threads) {
  const data::DatasetSpec& spec = w.spec;
  auto clip_spec = [&](int i) {
    data::DatasetSpec s = spec;
    if (w.drives.empty()) return s;
    const Drive d = w.drives[static_cast<std::size_t>(i) % w.drives.size()];
    s.stop_and_go_fraction = d == Drive::kStopAndGo ? 1.0 : 0.0;
    s.turning_fraction = d == Drive::kTurning ? 1.0 : 0.0;
    return s;
  };
  std::vector<data::Clip> clips(static_cast<std::size_t>(spec.clip_count));
  const int n = std::max(1, std::min(threads, spec.clip_count));
  std::vector<std::thread> pool;
  for (int t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (int i = t; i < spec.clip_count; i += n)
        clips[static_cast<std::size_t>(i)] =
            data::generate_clip(clip_spec(i), i);
    });
  }
  for (auto& th : pool) th.join();
  return clips;
}

std::uint64_t input_digest(const std::vector<data::Clip>& clips) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto bytes = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  auto f64 = [&bytes](double v) { bytes(&v, sizeof v); };
  for (const auto& clip : clips) {
    for (const auto& rec : clip.frames) {
      for (const video::Plane* p : {&rec.image.y, &rec.image.u, &rec.image.v})
        bytes(p->data.data(), p->data.size());
      for (const auto& obj : rec.objects) {
        const auto cls = static_cast<std::uint8_t>(obj.cls);
        bytes(&cls, 1);
        f64(obj.pixel_box.x0);
        f64(obj.pixel_box.y0);
        f64(obj.pixel_box.x1);
        f64(obj.pixel_box.y1);
      }
    }
  }
  return h;
}

Truths raw_detections(const std::vector<data::Clip>& clips) {
  // The edge server's detector on the raw frame is the ground truth.
  const edge::ChromaDetector detector{edge::ServerConfig{}.detector};
  Truths truths(clips.size());
  for (std::size_t c = 0; c < clips.size(); ++c)
    for (const auto& rec : clips[c].frames)
      truths[c].push_back(detector.detect(rec.image));
  return truths;
}

bool same_detections(const edge::DetectionList& a,
                     const edge::DetectionList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls != b[i].cls || !(a[i].box == b[i].box) ||
        std::memcmp(&a[i].confidence, &b[i].confidence, sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool same_frame(const FrameResult& a, const FrameResult& b) {
  return a.response == b.response && a.offloaded == b.offloaded &&
         a.bytes == b.bytes && a.base_qp == b.base_qp &&
         same_detections(a.detections, b.detections);
}

ClipResults run_single_agent(const Workload& w,
                             const std::vector<data::Clip>& clips,
                             std::vector<double>* frame_ms,
                             obs::ObsContext* obs, ClipTimes* clip_cpu_ms) {
  harness::SchemeOptions options = w.options;
  options.obs = obs;
  ClipResults results(clips.size());
  if (clip_cpu_ms != nullptr) clip_cpu_ms->resize(clips.size());
  for (std::size_t c = 0; c < clips.size(); ++c) {
    const data::Clip& clip = clips[c];
    const double clip_cpu0 = process_cpu_ms();
    auto scheme = harness::make_scheme(harness::SchemeKind::kDive, options,
                                       w.network, clip,
                                       clip.frame_count() / clip.fps);
    results[c].reserve(clip.frames.size());
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      const auto t0 = Clock::now();
      if (i + 1 < clip.frames.size())
        scheme->hint_next_frame(clip.frames[i + 1].image);
      core::FrameOutcome out = scheme->process_frame(
          clip.frames[i].image, util::from_seconds(clip.frames[i].timestamp));
      if (frame_ms != nullptr) frame_ms->push_back(ms_since(t0));
      results[c].push_back({std::move(out.detections), out.response_time,
                            out.offloaded, out.bytes_sent, out.base_qp});
    }
    scheme.reset();  // joins the encoder's lanes
    if (clip_cpu_ms != nullptr)
      (*clip_cpu_ms)[c].push_back(process_cpu_ms() - clip_cpu0);
  }
  return results;
}

double program_map(const ClipResults& results, const Truths& truths) {
  edge::ApEvaluator evaluator;
  for (std::size_t c = 0; c < results.size(); ++c)
    for (std::size_t i = 0; i < results[c].size(); ++i)
      evaluator.add_frame(results[c][i].detections, truths[c][i]);
  return evaluator.map();
}

}  // namespace perfbench
