#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

video::Frame busy_frame(int w, int h, std::uint64_t seed) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (auto& px : f.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(30, 220));
  for (auto& px : f.u.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  for (auto& px : f.v.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  return f;
}

/// Smooth texture panning by 1.5 px per frame plus noise: inter frames
/// carry half-pel motion and a residual at every QP.
video::Frame panning_frame(int w, int h, int t) {
  video::Frame f(w, h);
  util::Rng rng(static_cast<std::uint64_t>(100 + t));
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double v = 120 + 60 * std::sin((x - 1.5 * t) * 0.21) *
                                 std::cos(y * 0.17) +
                       rng.uniform(-6, 6);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  for (auto& px : f.u.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(118, 138));
  for (auto& px : f.v.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(118, 138));
  return f;
}

long long arg_of(const obs::TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return v;
  ADD_FAILURE() << e.name << " has no arg " << key;
  return -1;
}

TEST(RateControl, ReconstructsOnlyTheCommittedTrial) {
  // Each frame is bisected over several QP trials; only the chosen one is
  // reconstructed, and that reconstruction must be exactly what the
  // decoder builds from the emitted bytes and what a fixed-QP encode of
  // the chosen QP commits, for one and two lanes alike.
  constexpr int kW = 128;
  constexpr int kH = 64;
  std::vector<std::vector<std::uint8_t>> streams[2];
  for (const int threads : {1, 2}) {
    obs::ObsContext obs;
    obs.tracer.set_enabled(true);
    Encoder enc({.width = kW, .height = kH, .threads = threads});
    enc.set_obs(&obs);
    Encoder twin({.width = kW, .height = kH, .threads = threads});
    Decoder dec;
    int multi_trial_inter = 0;
    for (int i = 0; i < 8; ++i) {
      const auto src = panning_frame(kW, kH, i);
      obs.tracer.clear();
      const auto encoded = enc.encode_to_target(src, 2'500);
      const RateControlStats rc = enc.rate_control_stats();
      std::multiset<long long> trial_qps;
      int recons = 0;
      for (const auto& e : obs.tracer.snapshot()) {
        if (e.name == "codec.inter_trial" || e.name == "codec.intra_trial")
          trial_qps.insert(arg_of(e, "qp"));
        if (e.name == "codec.inter_recon") ++recons;
      }
      // Every trial is a distinct QP, and the committed one is among them.
      EXPECT_EQ(static_cast<int>(trial_qps.size()), rc.trials_encoded);
      EXPECT_EQ(rc.trials_attempted, rc.trials_encoded);
      EXPECT_EQ(std::set<long long>(trial_qps.begin(), trial_qps.end()).size(),
                trial_qps.size())
          << "frame " << i;
      EXPECT_EQ(trial_qps.count(encoded.base_qp), 1u) << "frame " << i;
      const bool inter = encoded.type == FrameType::kInter;
      EXPECT_EQ(recons, inter ? 1 : 0) << "frame " << i;
      if (inter && rc.trials_encoded >= 3) ++multi_trial_inter;

      EXPECT_EQ(dec.decode(encoded.data).frame, enc.reference())
          << "threads " << threads << " frame " << i;
      const auto fixed = twin.encode(src, encoded.base_qp);
      EXPECT_EQ(fixed.data, encoded.data) << "frame " << i;
      EXPECT_EQ(twin.reference(), enc.reference()) << "frame " << i;
      streams[threads - 1].push_back(encoded.data);
    }
    EXPECT_GE(multi_trial_inter, 3) << "threads " << threads;
  }
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(RateControl, FitsGenerousBudget) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 1);
  const auto encoded = enc.encode_to_target(frame, 20'000);
  EXPECT_LE(encoded.bytes(), 20'000u);
}

TEST(RateControl, FitsTightBudget) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 2);
  const auto encoded = enc.encode_to_target(frame, 2'000);
  EXPECT_LE(encoded.bytes(), 2'000u);
  EXPECT_GT(encoded.base_qp, 25);
}

TEST(RateControl, PicksBestQualityThatFits) {
  // With a large budget the selected QP should be near the minimum
  // reachable within the trial count.
  Encoder enc({.width = 64, .height = 32});
  const auto frame = busy_frame(64, 32, 3);
  const auto encoded = enc.encode_to_target(frame, 1'000'000);
  EXPECT_LE(encoded.base_qp, 6);
}

TEST(RateControl, ImpossibleBudgetStillEncodes) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 4);  // noise: inherently expensive
  const auto encoded = enc.encode_to_target(frame, 10);
  // Cannot fit 10 bytes, but returns the smallest stream the QP search
  // reached (within one step of the maximum).
  EXPECT_GT(encoded.bytes(), 10u);
  EXPECT_GE(encoded.base_qp, kMaxQp - 1);
}

TEST(RateControl, SuccessiveFramesTrackBudget) {
  Encoder enc({.width = 128, .height = 64});
  std::size_t total = 0;
  const std::size_t per_frame = 4'000;
  for (int i = 0; i < 6; ++i) {
    const auto frame = busy_frame(128, 64, 10 + i);
    const auto encoded = enc.encode_to_target(frame, per_frame);
    EXPECT_LE(encoded.bytes(), per_frame) << "frame " << i;
    total += encoded.bytes();
  }
  EXPECT_LE(total, per_frame * 6);
}

TEST(RateControl, OffsetsReduceSizeAtEqualBaseQp) {
  const auto frame = busy_frame(128, 64, 7);
  Encoder a({.width = 128, .height = 64});
  const auto plain = a.encode(frame, 20);
  QpOffsetMap offsets(8, 4, 16);  // everything compressed harder
  Encoder b({.width = 128, .height = 64});
  const auto squeezed = b.encode(frame, 20, &offsets);
  EXPECT_LT(squeezed.bytes(), plain.bytes());
}

}  // namespace
}  // namespace dive::codec
