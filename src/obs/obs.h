// Observability context: one MetricsRegistry + one Tracer handed through
// the stack (agent, codec, net, edge, serve) as a non-owning pointer.
// A null context means "not observed" and costs a single pointer check
// at every instrumentation site.
#pragma once

#include "obs/frame_context.h"
#include "obs/frame_ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dive::obs {

struct ObsContext {
  MetricsRegistry metrics;
  Tracer tracer;
  FrameLedger ledger;
};

}  // namespace dive::obs

/// Declares a ScopedSpan named `var` on context pointer `ctx` (may be
/// null). Usage:
///   DIVE_OBS_SPAN(span, obs_, "codec.encode_to_target", obs::kTrackCodec);
///   span.arg("target_bytes", static_cast<long long>(target));
#define DIVE_OBS_SPAN(var, ctx, name, track)            \
  ::dive::obs::ScopedSpan var(                          \
      (ctx) != nullptr ? &(ctx)->tracer : nullptr, (name), (track))
