// Per-frame causal identity, minted once at encode time and carried by
// value through every stage a frame touches (encoder -> sidecar/uplink ->
// admission -> scheduler -> edge inference -> result).
//
// The context is a plain struct on purpose: carrying three integers
// through codec, net, serve, and edge costs nothing whether or not the
// run is observed. Only span emission and ledger bookkeeping are
// observability features.
//
// `sequence` is a monotone, deterministic mint order (global capture
// order in the harness) and doubles as the Chrome-trace flow id tying a
// frame's spans together across tracks. Sequence 0 means "no context":
// spans fall back to untagged and the ledger ignores the frame.
#pragma once

#include <cstdint>

namespace dive::obs {

struct FrameTraceContext {
  std::uint32_t session_id = 0;
  std::uint64_t frame_index = 0;
  std::uint64_t sequence = 0;  ///< mint order; 0 = unminted/invalid

  [[nodiscard]] bool valid() const { return sequence != 0; }
  /// Flow-event id in the Chrome trace export (unique per frame).
  [[nodiscard]] std::uint64_t flow_id() const { return sequence; }
};

}  // namespace dive::obs
