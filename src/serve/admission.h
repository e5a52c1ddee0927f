// Admission control for the multi-agent serving layer: bounded
// per-session queues plus a deadline-aware overload policy.
//
// A frame rejected here behaves, from the agent's point of view, exactly
// like a head-of-line link outage (Sec. III-E): the agent falls back to
// motion-vector offline tracking and marks its next upload intra, since
// the session's decoder at the edge never saw the rejected frame. That
// keeps overload degradation graceful — accuracy decays through MOT
// instead of queues growing without bound.
//
// Policies, applied in order:
//   1. Queue bound: a session may hold at most `max_queue` admitted
//      frames awaiting a worker (kQueueFull otherwise). This caps node
//      memory and bounds any one session's claim on the pool.
//   2. Deadline: using the scheduler's completion estimate, a frame whose
//      result would reach the agent after capture + deadline is dropped
//      up front (kDeadline) — serving it would waste worker time on an
//      answer the agent supersedes anyway.
#pragma once

#include <cstdint>

#include "serve/session.h"
#include "util/sim_clock.h"

namespace dive::serve {

enum class AdmissionVerdict : std::uint8_t {
  kAdmit = 0,
  kQueueFull = 1,
  kDeadline = 2,
};

const char* to_string(AdmissionVerdict verdict);

struct AdmissionConfig {
  /// Bounded per-session queue of admitted-but-undispatched frames.
  std::size_t max_queue = 4;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  /// Decides for a frame of `session` captured at `capture_time`;
  /// `predicted_done` is the scheduler's service-completion estimate and
  /// `downlink_delay` the return-path cost to the agent.
  [[nodiscard]] AdmissionVerdict decide(const Session& session,
                                        util::SimTime capture_time,
                                        util::SimTime predicted_done,
                                        util::SimTime downlink_delay) const;

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
};

}  // namespace dive::serve
