// dive_perfbench: end-to-end DiVE benchmark driver (see ../README.md).
//
//   dive_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--lanes <k>] [--revision <rev>]
//   dive_perfbench --digest --workload <name> --seed <n>
//   dive_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the traced replay and reports the per-layer metrics. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/obs.h"
#include "util/stats.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean_of_samples(const std::vector<double>& v) {
  util::SampleSet s;
  for (double x : v) s.add(x);
  return s.empty() ? 0.0 : s.mean();
}

double quantile(const std::vector<double>& v, double q) {
  util::SampleSet s;
  for (double x : v) s.add(x);
  return s.empty() ? 0.0 : s.quantile(q);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

long total_frames(const std::vector<data::Clip>& clips) {
  long n = 0;
  for (const auto& c : clips) n += c.frame_count();
  return n;
}

/// The frames at the head of the first clip: a warm-up that fills caches
/// and the encoder's worker pool before anything is timed.
std::vector<data::Clip> warmup_clips(const std::vector<data::Clip>& clips) {
  std::vector<data::Clip> head(1, clips.front());
  head.front().frames.resize(
      std::min<std::size_t>(head.front().frames.size(), 24));
  return head;
}

// ---- Single-agent workloads -------------------------------------------

void timed_single_agent(const Workload& w, const std::vector<data::Clip>& clips,
                        const Truths& truths, double seconds, Outcome& out) {
  (void)run_single_agent(w, warmup_clips(clips), nullptr, nullptr);

  ClipResults first;
  ClipTimes clip_cpu_ms;
  long rounds = 0;
  const auto start = Clock::now();
  do {
    ClipResults results =
        run_single_agent(w, clips, nullptr, nullptr, &clip_cpu_ms);
    if (++rounds == 1) {
      first = std::move(results);
      continue;
    }
    for (std::size_t c = 0; c < clips.size(); ++c)
      for (std::size_t i = 0; i < first[c].size(); ++i)
        if (!same_frame(first[c][i], results[c][i])) {
          out.correct = false;
          out.errors.push_back("round " + std::to_string(rounds) +
                               " differs from round 1 at clip " +
                               std::to_string(c) + " frame " +
                               std::to_string(i));
          c = clips.size();
          break;
        }
  } while (ms_since(start) < seconds * 1000.0);

  CheckReport report;
  check_single_agent(w, clips, truths, first, program_map(first, truths),
                     report);
  const long frames = total_frames(clips);
  out.attempted = rounds * frames;
  out.failed = rounds * report.failed;
  out.correct = out.correct && report.global_ok;
  out.errors.insert(out.errors.end(), report.errors.begin(),
                    report.errors.end());

  std::vector<double> response;
  double bytes = 0.0;
  for (const auto& clip : first)
    for (const auto& r : clip) {
      response.push_back(util::to_millis(r.response));
      bytes += static_cast<double>(r.bytes);
    }
  out.metrics.push_back({"map", program_map(first, truths), "mAP"});
  out.metrics.push_back({"response_ms_p50", quantile(response, 0.5), "ms"});
  out.metrics.push_back({"response_ms_p95", quantile(response, 0.95), "ms"});
  out.metrics.push_back(
      {"uplink_kB_per_frame", bytes / 1024.0 / static_cast<double>(frames),
       "kB"});
  // Each clip's CPU time is the median over rounds, so one round slowed
  // by the host does not move the figure.
  double round_cpu_ms = 0.0;
  for (const auto& times : clip_cpu_ms) round_cpu_ms += median(times);
  out.metrics.push_back(
      {"cpu_ms_per_frame", round_cpu_ms / static_cast<double>(frames), "ms"});
}

void traced_single_agent(const Workload& w, const std::vector<data::Clip>& clips,
                         const Truths& truths, Outcome& out,
                         std::map<std::string, double>& m) {
  (void)run_single_agent(w, warmup_clips(clips), nullptr, nullptr);
  const long frames = total_frames(clips);

  // Untraced pass: the reference outputs and the host time of each
  // process_frame call.
  std::vector<double> frame_ms;
  const ClipResults plain = run_single_agent(w, clips, &frame_ms, nullptr);
  double plain_ms = 0.0;
  for (double v : frame_ms) plain_ms += v;

  // Observed pass (registry and ledger on, tracer off): the program's own
  // counts. Observation must not change a single output.
  obs::ObsContext ctx;
  const ClipResults observed = run_single_agent(w, clips, nullptr, &ctx);

  // Traced replay through the layer calls.
  const ReplayResult replay = replay_single_agent(w, clips);

  long diverged = 0;
  long observed_diverged = 0;
  for (std::size_t c = 0; c < clips.size(); ++c)
    for (std::size_t i = 0; i < plain[c].size(); ++i) {
      if (!same_frame(plain[c][i], replay.results[c][i])) ++diverged;
      if (!same_frame(plain[c][i], observed[c][i])) ++observed_diverged;
    }

  // The harness entry point's own claim over the same inputs: the pass
  // above must reproduce it.
  const harness::RunResult claim = harness::run_experiment(
      harness::SchemeKind::kDive, clips, w.network, w.options);
  CheckReport report;
  check_single_agent(w, clips, truths, plain, claim.map, report);
  std::vector<double> response;
  double bytes = 0.0;
  for (const auto& clip : plain)
    for (const auto& r : clip) {
      response.push_back(util::to_millis(r.response));
      bytes += static_cast<double>(r.bytes);
    }
  auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  if (claim.frames != frames ||
      !close(claim.mean_response_ms,
             mean_of_samples(response)) ||
      !close(claim.p95_response_ms, quantile(response, 0.95)) ||
      !close(claim.mean_kbytes_per_frame, bytes / 1024.0 / frames))
    report.global_failed(
        "run_experiment disagrees with the per-frame pass on frames, "
        "response or bytes");
  out.attempted = frames;
  out.failed = report.failed + replay.checks_failed;
  out.correct = report.global_ok && diverged == 0 && observed_diverged == 0;
  out.errors = report.errors;
  out.errors.insert(out.errors.end(), replay.errors.begin(),
                    replay.errors.end());
  if (diverged > 0)
    out.errors.push_back(std::to_string(diverged) +
                         " replayed frames diverge from the untraced pass");
  if (observed_diverged > 0)
    out.errors.push_back(std::to_string(observed_diverged) +
                         " observed frames diverge from the untraced pass");

  long offloaded = 0;
  long mot = 0;
  long detections = 0;
  for (const auto& clip : plain)
    for (const auto& r : clip) {
      (r.offloaded ? offloaded : mot) += 1;
      if (r.offloaded) detections += static_cast<long>(r.detections.size());
    }
  const double n = static_cast<double>(frames);
  const double n_off = static_cast<double>(std::max(1L, offloaded));
  auto span = [&](const char* name) {
    const auto it = replay.span_ms.find(name);
    return it == replay.span_ms.end() ? 0.0 : it->second;
  };
  double layers_ms = 0.0;
  for (const auto& [name, ms] : replay.span_ms)
    if (name.rfind("check.", 0) != 0) layers_ms += ms;

  auto counter = [&](const char* name) {
    return static_cast<double>(ctx.metrics.counter(name).value());
  };
  auto mean_of = [&](const char* name) {
    const util::SampleSet s = ctx.metrics.distribution(name).snapshot();
    return s.empty() ? 0.0 : s.mean();
  };
  auto p95_of = [&](const char* name) {
    const util::SampleSet s = ctx.metrics.distribution(name).snapshot();
    return s.empty() ? 0.0 : s.quantile(0.95);
  };

  m["codec.analyze_motion_ms"] = span("codec.analyze_motion") / n;
  m["codec.encode_ms"] = span("codec.encode") / n;
  m["codec.rc_trials_per_frame"] = static_cast<double>(replay.rc_trials) / n;
  m["codec.decode_ms"] = span("check.decode") / n_off;
  m["codec.skip_mb_ratio"] =
      counter("codec.skip.skipped_mbs") /
      std::max(1.0, counter("codec.skip.inter_mbs"));
  m["codec.base_qp_mean"] = mean_of("codec.base_qp");
  m["codec.intra_frames"] = static_cast<double>(replay.intra_frames);
  m["core.preprocess_ms"] = span("core.preprocess") / n;
  m["core.foreground_ms"] = span("core.foreground") / n;
  m["core.qp_assign_ms"] = span("core.qp_assign") / n;
  m["core.mot_ms"] = mot > 0 ? span("core.mot") / static_cast<double>(mot) : 0.0;
  m["core.fg_area_pct"] = replay.fg_area_pct_sum / n;
  m["core.budget_kB_per_frame"] = replay.budget_bytes_sum / 1024.0 / n;
  m["core.mot_frames"] = static_cast<double>(mot);
  m["roi.sidecar_ms"] = span("roi.sidecar") / n;
  m["roi.gate_ms"] = w.options.roi_metadata ? span("edge.process") / n_off : 0.0;
  m["roi.sidecar_bytes_per_frame"] = static_cast<double>(replay.sidecar_bytes) / n;
  const double gated = counter("roi.gated_frames");
  const double full = counter("roi.full_frames");
  m["roi.gated_frame_ratio"] = gated + full > 0 ? gated / (gated + full) : 0.0;
  m["roi.pixel_fraction_mean"] = mean_of("roi.pixel_fraction");
  m["net.queue_ms_p95"] = p95_of("net.queue_ms");
  m["net.serialize_ms_mean"] = mean_of("net.transmit_ms");
  m["net.delivered_ratio"] =
      counter("net.delivered") / std::max(1.0, counter("net.transmits"));
  m["edge.process_ms"] = span("edge.process") / n_off;
  m["edge.detect_ms"] = span("check.detect") / n_off;
  m["edge.detections_per_frame"] = static_cast<double>(detections) / n_off;
  m["agent.frame_ms_p50"] = quantile(frame_ms, 0.5);
  m["agent.frame_ms_p95"] = quantile(frame_ms, 0.95);
  m["agent.unattributed_ms"] = (replay.frame_ms_total - layers_ms) / n;
  m["bench.layer_coverage"] =
      replay.frame_ms_total > 0 ? layers_ms / replay.frame_ms_total : 0.0;
  m["bench.trace_overhead_ratio"] =
      plain_ms > 0 ? replay.frame_ms_total / plain_ms : 0.0;
  m["bench.replay_diverged_frames"] = static_cast<double>(diverged);
  if (m["bench.layer_coverage"] < 0.95) {
    out.correct = false;
    out.errors.push_back("layer spans cover less than 95% of the frame");
  }
}

// ---- Serving workload -------------------------------------------------

struct ServeRun {
  harness::ServeScenarioResult result;
  std::vector<obs::FrameRecord> ledger;
  double bytes_delivered = 0.0;
  double cpu_ms = 0.0;
};

ServeRun run_serve(const harness::ServeScenarioOptions& options) {
  ServeRun run;
  obs::ObsContext ctx;  // registry and ledger; the tracer stays off
  harness::ServeScenarioOptions o = options;
  o.obs = &ctx;
  const double cpu0 = process_cpu_ms();
  run.result = harness::run_serve_scenario(o);
  run.cpu_ms = process_cpu_ms() - cpu0;
  run.ledger = ctx.ledger.records();
  run.bytes_delivered =
      static_cast<double>(ctx.metrics.counter("net.bytes_delivered").value());
  return run;
}

std::vector<double> serve_response_ms(const Workload& w, const ServeRun& run) {
  std::vector<double> v;
  const double local_track = util::to_millis(w.serve.latencies.local_track);
  for (const auto& f : run.ledger) {
    const bool done = f.outcome == obs::FrameOutcome::kCompleted ||
                      f.outcome == obs::FrameOutcome::kCompletedLate;
    // A frame the edge never answered is held from the MOT fallback.
    v.push_back(f.e2e_ms() + (done ? 0.0 : local_track));
  }
  return v;
}

bool same_serve(const ServeRun& a, const ServeRun& b) {
  if (a.ledger.size() != b.ledger.size()) return false;
  for (std::size_t i = 0; i < a.ledger.size(); ++i)
    if (a.ledger[i].finished != b.ledger[i].finished ||
        a.ledger[i].outcome != b.ledger[i].outcome)
      return false;
  return a.result.aggregate_map == b.result.aggregate_map &&
         a.bytes_delivered == b.bytes_delivered;
}

harness::ServeScenarioOptions serve_warmup(const Workload& w) {
  harness::ServeScenarioOptions o = w.serve;
  o.sessions = 2;
  o.frames_per_session = 12;
  return o;
}

void timed_serve(const Workload& w, double seconds, Outcome& out) {
  (void)run_serve(serve_warmup(w));
  ServeRun first;
  std::vector<double> round_cpu_ms;
  const auto start = Clock::now();
  do {
    ServeRun run = run_serve(w.serve);
    round_cpu_ms.push_back(run.cpu_ms);
    if (round_cpu_ms.size() == 1) {
      first = std::move(run);
    } else if (!same_serve(first, run)) {
      out.correct = false;
      out.errors.push_back("serve round " +
                           std::to_string(round_cpu_ms.size()) +
                           " differs from round 1");
    }
  } while (ms_since(start) < seconds * 1000.0);

  CheckReport report;
  check_serve(w, first.result, first.ledger, report);
  const long rounds = static_cast<long>(round_cpu_ms.size());
  const long frames = first.result.frames;
  out.attempted = rounds * frames;
  out.failed = rounds * report.failed;
  out.correct = out.correct && report.global_ok;
  out.errors.insert(out.errors.end(), report.errors.begin(),
                    report.errors.end());

  const std::vector<double> response = serve_response_ms(w, first);
  out.metrics.push_back({"map", first.result.aggregate_map, "mAP"});
  out.metrics.push_back({"response_ms_p50", quantile(response, 0.5), "ms"});
  out.metrics.push_back({"response_ms_p95", quantile(response, 0.95), "ms"});
  out.metrics.push_back({"uplink_kB_per_frame",
                         first.bytes_delivered / 1024.0 /
                             static_cast<double>(frames),
                         "kB"});
  out.metrics.push_back({"cpu_ms_per_frame",
                         median(round_cpu_ms) / static_cast<double>(frames),
                         "ms"});
}

void traced_serve(const Workload& w, Outcome& out,
                  std::map<std::string, double>& m) {
  const ServeRun run = run_serve(w.serve);
  CheckReport report;
  check_serve(w, run.result, run.ledger, report);
  out.attempted = run.result.frames;
  out.failed = report.failed;
  out.correct = report.global_ok;
  out.errors = report.errors;

  std::vector<double> admission;
  std::vector<double> queue;
  double batch_wait = 0.0;
  double serialize = 0.0;
  long completed = 0;
  long delivered = 0;
  for (const auto& f : run.ledger) {
    if (f.stage(obs::FrameStage::kTransmit).set) {
      ++delivered;
      serialize += f.stage_ms(obs::FrameStage::kTransmit);
    }
    queue.push_back(f.stage_ms(obs::FrameStage::kUplinkQueue));
    if (f.outcome == obs::FrameOutcome::kCompleted ||
        f.outcome == obs::FrameOutcome::kCompletedLate) {
      ++completed;
      admission.push_back(f.stage_ms(obs::FrameStage::kAdmissionWait));
      batch_wait += f.stage_ms(obs::FrameStage::kBatchWait);
    }
  }
  const auto& r = run.result;
  const double n = static_cast<double>(r.frames);
  m["core.mot_frames"] = static_cast<double>(r.mot);
  m["roi.sidecar_bytes_per_frame"] = static_cast<double>(r.sidecar_bytes) / n;
  m["roi.gated_frame_ratio"] =
      r.completed > 0 ? static_cast<double>(r.gated) / r.completed : 0.0;
  m["roi.pixel_fraction_mean"] = r.mean_gated_pixel_fraction;
  m["net.queue_ms_p95"] = quantile(queue, 0.95);
  m["net.serialize_ms_mean"] =
      delivered > 0 ? serialize / static_cast<double>(delivered) : 0.0;
  m["net.delivered_ratio"] = static_cast<double>(delivered) / n;
  m["serve.admission_wait_ms_p95"] = quantile(admission, 0.95);
  m["serve.batch_wait_ms_mean"] =
      completed > 0 ? batch_wait / static_cast<double>(completed) : 0.0;
  m["serve.batch_size_mean"] = r.mean_batch;
  m["serve.queue_depth_mean"] = r.mean_queue_depth;
  m["serve.completed_frames"] = static_cast<double>(r.completed);
  m["codec.base_qp_mean"] = static_cast<double>(w.serve.base_qp);
}

// ---- Output -----------------------------------------------------------

const char* const kPerLayer[][2] = {
    {"video.render_ms_per_frame", "ms"},
    {"codec.analyze_motion_ms", "ms"},
    {"codec.encode_ms", "ms"},
    {"codec.rc_trials_per_frame", "count"},
    {"codec.decode_ms", "ms"},
    {"codec.skip_mb_ratio", "ratio"},
    {"codec.base_qp_mean", "qp"},
    {"codec.intra_frames", "count"},
    {"core.preprocess_ms", "ms"},
    {"core.foreground_ms", "ms"},
    {"core.qp_assign_ms", "ms"},
    {"core.mot_ms", "ms"},
    {"core.fg_area_pct", "%"},
    {"core.budget_kB_per_frame", "kB"},
    {"core.mot_frames", "count"},
    {"roi.sidecar_ms", "ms"},
    {"roi.gate_ms", "ms"},
    {"roi.sidecar_bytes_per_frame", "bytes"},
    {"roi.gated_frame_ratio", "ratio"},
    {"roi.pixel_fraction_mean", "ratio"},
    {"net.queue_ms_p95", "ms"},
    {"net.serialize_ms_mean", "ms"},
    {"net.delivered_ratio", "ratio"},
    {"edge.process_ms", "ms"},
    {"edge.detect_ms", "ms"},
    {"edge.detections_per_frame", "count"},
    {"serve.admission_wait_ms_p95", "ms"},
    {"serve.batch_wait_ms_mean", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.queue_depth_mean", "count"},
    {"serve.completed_frames", "count"},
    {"agent.frame_ms_p50", "ms"},
    {"agent.frame_ms_p95", "ms"},
    {"agent.unattributed_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.score_ms_per_frame", "ms"},
    {"bench.layer_coverage", "ratio"},
    {"bench.replay_diverged_frames", "count"},
};

void print_result(const Outcome& out) {
  for (const auto& e : out.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  bool finite = true;
  for (const auto& metric : out.metrics) {
    std::printf("metric %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    finite = finite && std::isfinite(metric.value);
  }
  std::printf("frames attempted %ld, failed %ld, checks %s\n", out.attempted,
              out.failed, out.correct && finite ? "passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              out.correct && finite ? "true" : "false", out.attempted,
              out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const double v = std::isfinite(out.metrics[i].value) ? out.metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(), v,
                out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int lanes = 0;
  std::string revision = "unknown";
  bool digest = false;
  bool selftest = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: dive_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--lanes <k>] [--revision <r>]\n"
               "       dive_perfbench --digest --workload <name> --seed <n>\n"
               "       dive_perfbench --selftest\n");
  return 2;
}

/// Set-up renders clips on this many threads; rendering holds no encoder
/// lane, and the set-up repetitions stay short.
constexpr int kRenderThreads = 4;

int run(const Args& a) {
  const std::optional<Workload> found =
      make_workload(a.workload, a.seed, a.lanes);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'; workloads:", a.workload.c_str());
    for (const auto& name : workload_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *found;

  if (a.digest) {
    const auto clips = render_clips(w, a.lanes);
    std::printf("%s seed %llu input digest %016llx (%zu clips, %ld frames)\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(input_digest(clips)),
                clips.size(), total_frames(clips));
    return 0;
  }

  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"gcc %s\" build=%s "
              "lanes=%d revision=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              __VERSION__, DIVE_PERFBENCH_BUILD_TYPE, a.lanes,
              a.revision.c_str());

  // Set-up: rendering the workload's clips, repeated; setup_s is the
  // median CPU time. The traced run renders once, serially, to time the
  // renderer.
  std::vector<data::Clip> clips;
  std::vector<double> setup_s;
  double render_ms = 0.0;
  const int reps = a.trace != 0 ? 1 : w.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    clips = render_clips(w, a.trace != 0 ? 1 : kRenderThreads);
    setup_s.push_back((process_cpu_ms() - cpu0) / 1000.0);
    render_ms = ms_since(t0);
  }
  const long frames = total_frames(clips);
  std::printf("inputs: digest=%016llx clips=%zu frames=%ld %dx%d\n",
              static_cast<unsigned long long>(input_digest(clips)),
              clips.size(), frames, w.spec.width, w.spec.height);

  const auto score_t0 = Clock::now();
  const Truths truths = raw_detections(clips);
  const double score_ms = ms_since(score_t0);

  Outcome out;
  std::map<std::string, double> layer;
  try {
    if (a.trace == 0) {
      if (w.kind == Kind::kServe)
        timed_serve(w, a.seconds, out);
      else
        timed_single_agent(w, clips, truths, a.seconds, out);
    } else {
      for (const auto& [name, unit] : kPerLayer) layer[name] = 0.0;
      if (w.kind == Kind::kServe)
        traced_serve(w, out, layer);
      else
        traced_single_agent(w, clips, truths, out, layer);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  if (a.trace == 0) {
    out.metrics.push_back({"setup_s", median(setup_s), "s"});
    out.metrics.push_back({"peak_rss_MB", peak_rss_mb(), "MB"});
  } else {
    layer["video.render_ms_per_frame"] =
        render_ms / static_cast<double>(frames);
    layer["bench.score_ms_per_frame"] = score_ms / static_cast<double>(frames);
    out.metrics.clear();
    for (const auto& [name, unit] : kPerLayer)
      out.metrics.push_back({name, layer[name], unit});
  }
  print_result(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (key == "--workload") a.workload = value();
      else if (key == "--seed") a.seed = std::stoull(value());
      else if (key == "--seconds") a.seconds = std::stod(value());
      else if (key == "--trace") a.trace = std::stoi(value());
      else if (key == "--lanes") a.lanes = std::stoi(value());
      else if (key == "--revision") a.revision = value();
      else if (key == "--digest") a.digest = true;
      else if (key == "--selftest") a.selftest = true;
      else return perfbench::usage();
    } catch (const std::exception&) {
      return perfbench::usage();
    }
  }
  if (a.selftest) return perfbench::run_selftest();
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0 || a.trace > 1)
    return perfbench::usage();
  // Two encoder lanes by default: on a 4-core host four lanes stall on any
  // core's steal time, and round times spread by a sixth.
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  a.lanes = std::min(a.lanes <= 0 ? 2 : a.lanes, cores);
  // The agent's encoder takes its lane count from DIVE_THREADS.
  setenv("DIVE_THREADS", std::to_string(a.lanes).c_str(), 1);
  return perfbench::run(a);
}
