// Shared declarations of the end-to-end DiVE benchmark (see ../README.md).
//
// The benchmark drives the program only through its public entry points:
// harness::make_scheme + AnalyticsScheme::process_frame for the
// single-agent workloads, harness::run_serve_scenario for the serving
// workload, and the layer classes themselves for the traced replay.
// Everything it measures or checks is computed here, beside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "data/dataset.h"
#include "edge/detection.h"
#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "obs/frame_ledger.h"
#include "util/sim_clock.h"

namespace perfbench {

using namespace dive;  // NOLINT: benchmark-local shorthand

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// User + system CPU time of the whole process (every thread), in ms.
[[nodiscard]] double process_cpu_ms();

// ---- Workloads --------------------------------------------------------

enum class Kind { kSingleAgent, kServe };
enum class Drive { kStraight, kStopAndGo, kTurning };

struct Workload {
  std::string name;
  Kind kind = Kind::kSingleAgent;
  int lanes = 1;  ///< encoder lanes of the single-agent workloads
  /// The clips the workload plays. For kServe this is the clip pool that
  /// run_serve_scenario renders for itself; the benchmark renders the
  /// same pool for its digest and its checks.
  data::DatasetSpec spec;
  /// Drive profile of clip i is drives[i % size]: the preset's mix of
  /// straight, stop-and-go and turning clips as fixed strata, so the seed
  /// changes what happens in each clip, not how many clips of each kind
  /// there are. Empty: every clip draws its profile from the spec.
  std::vector<Drive> drives;
  harness::NetworkScenario network;  ///< kSingleAgent
  harness::SchemeOptions options;    ///< kSingleAgent
  harness::ServeScenarioOptions serve;  ///< kServe
  int setup_reps = 3;  ///< set-up repetitions; setup_s is their median
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// The workload `name` with inputs drawn from `seed`; nullopt if unknown.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    std::uint64_t seed,
                                                    int lanes);

/// Renders every clip of the workload, clips spread over `threads` threads.
[[nodiscard]] std::vector<data::Clip> render_clips(const Workload& w,
                                                   int threads);
/// FNV-1a 64 over every frame's Y/U/V planes and ground-truth boxes.
[[nodiscard]] std::uint64_t input_digest(const std::vector<data::Clip>& clips);
/// Raw-frame detections (the paper's ground truth) per clip and frame.
using Truths = std::vector<std::vector<edge::DetectionList>>;
[[nodiscard]] Truths raw_detections(const std::vector<data::Clip>& clips);

// ---- Single-agent runs ------------------------------------------------

/// What the agent holds for one captured frame.
struct FrameResult {
  edge::DetectionList detections;
  util::SimTime response = 0;
  bool offloaded = false;
  std::size_t bytes = 0;
  int base_qp = -1;
};
using ClipResults = std::vector<std::vector<FrameResult>>;

[[nodiscard]] bool same_detections(const edge::DetectionList& a,
                                   const edge::DetectionList& b);
[[nodiscard]] bool same_frame(const FrameResult& a, const FrameResult& b);

/// One pass over every clip through make_scheme + process_frame, exactly
/// as harness::run_experiment drives it (fresh network and agent per clip,
/// next-frame hint), minus its scoring. `frame_ms`, when given, receives
/// the host time of every process_frame call; `clip_cpu_ms[c]` the
/// process CPU time of each pass over clip c, agent construction and
/// the join of its encoder lanes included.
using ClipTimes = std::vector<std::vector<double>>;
[[nodiscard]] ClipResults run_single_agent(const Workload& w,
                                           const std::vector<data::Clip>& clips,
                                           std::vector<double>* frame_ms,
                                           obs::ObsContext* obs,
                                           ClipTimes* clip_cpu_ms = nullptr);

/// The program's own mAP (edge::ApEvaluator) over the pass.
[[nodiscard]] double program_map(const ClipResults& results,
                                 const Truths& truths);

// ---- Checks (checks.cpp) ----------------------------------------------

/// The sim-clock latency model of a workload, as lower bounds.
struct LatencyFloor {
  double agent_ms = 0.0;       ///< modelled analysis + encode
  double peak_bytes_per_ms = 0.0;
  double propagation_ms = 0.0;
  double edge_min_ms = 0.0;    ///< decode + least inference (RoI work floor)
  double jitter_ms = 0.0;      ///< largest inference jitter
  double downlink_ms = 0.0;
  double head_timeout_ms = 0.0;
  double local_track_ms = 0.0;

  [[nodiscard]] double offloaded_ms(double bytes) const {
    return agent_ms + bytes / peak_bytes_per_ms + propagation_ms +
           edge_min_ms - jitter_ms + downlink_ms;
  }
  [[nodiscard]] double mot_ms() const {
    return agent_ms + head_timeout_ms + local_track_ms;
  }
};
[[nodiscard]] LatencyFloor latency_floor(const Workload& w);

/// Per-frame checks: an empty string passes, anything else names the fault.
[[nodiscard]] std::string check_response(const FrameResult& r,
                                         const LatencyFloor& floor);
[[nodiscard]] std::string check_boxes(const edge::DetectionList& dets,
                                      int width, int height);
/// Closed loop: a fresh decoder fed every uploaded bitstream in order must
/// reproduce the encoder's reconstruction exactly.
[[nodiscard]] std::string check_closed_loop(codec::Decoder& fresh,
                                            std::span<const std::uint8_t> data,
                                            const video::Frame& recon,
                                            video::Frame* decoded);
/// Frames conserved: every captured frame has one outcome, and each is
/// either offloaded or answered by MOT.
[[nodiscard]] std::string check_conservation(long captured, long outcomes,
                                             long offloaded, long mot);

/// mAP computed apart from the program: greedy IoU >= 0.5 matching per
/// class in confidence order, all-point interpolated AP, mean over the
/// classes present in the ground truth.
[[nodiscard]] double reference_map(
    const std::vector<const edge::DetectionList*>& detections,
    const std::vector<const edge::DetectionList*>& truths);

struct CheckReport {
  long failed = 0;  ///< frames whose own checks failed
  std::vector<std::string> errors;  ///< every failure, frame and global
  bool global_ok = true;            ///< run-level checks (map, conservation)

  void frame_failed(const std::string& why);
  void global_failed(const std::string& why);
};

/// Every check of a single-agent pass against its own inputs;
/// `claimed_map` is the mAP the program reports for the pass.
void check_single_agent(const Workload& w, const std::vector<data::Clip>& clips,
                        const Truths& truths, const ClipResults& results,
                        double claimed_map, CheckReport& report);

/// Every check of a serving run against its ledger.
void check_serve(const Workload& w, const harness::ServeScenarioResult& r,
                 const std::vector<obs::FrameRecord>& ledger,
                 CheckReport& report);

// ---- Traced replay (replay.cpp) ---------------------------------------

/// Host-time spans and program outputs of the benchmark-side replay of
/// core::DiveAgent::process_frame.
struct ReplayResult {
  ClipResults results;
  std::map<std::string, double> span_ms;  ///< layer -> total host ms
  double frame_ms_total = 0.0;  ///< sum of replayed frame spans
  long intra_frames = 0;
  long rc_trials = 0;
  double budget_bytes_sum = 0.0;
  double fg_area_pct_sum = 0.0;
  long sidecar_bytes = 0;
  long checks_failed = 0;  ///< closed-loop / edge-detect mismatches
  std::vector<std::string> errors;
};

[[nodiscard]] ReplayResult replay_single_agent(
    const Workload& w, const std::vector<data::Clip>& clips);

// ---- Self-test (selftest.cpp) -----------------------------------------

/// Plants each fault the checks exist for and returns 0 when every one is
/// caught and the clean run passes.
int run_selftest();

}  // namespace perfbench
