// Fluid-flow transfer model: core value types (DESIGN.md §5f).
//
// A *flow* is one logical byte stream (e.g. one GridFTP data stripe)
// modelled as a rate over the links of its route instead of as individual
// packets. The engine (flow_engine.h) assigns every flow a max-min fair
// share of each link it crosses and advances all flows in batched steps:
// rates change only when a flow starts, finishes, or a link's flow set or
// capacity changes — never per segment. This is what makes 10^5–10^6
// concurrent transfers simulable (see bench/bench_flow.cpp).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "net/packet.h"

namespace gdmp::flow {

/// Opaque flow identifier. Slots are pooled and reused; the generation
/// tag makes stale ids harmless (cancel / query of a completed flow is a
/// no-op), mirroring sim::EventHandle.
struct FlowId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  bool valid() const noexcept { return gen != 0; }
  friend bool operator==(const FlowId&, const FlowId&) = default;
};

/// Sentinel byte count for background flows (cross traffic) that run until
/// cancelled.
constexpr Bytes kUnboundedBytes = INT64_MAX / 2;

struct FlowSpec {
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  /// Payload bytes to move; kUnboundedBytes = runs until cancel().
  Bytes bytes = 0;
  /// Relative max-min share weight before RTT scaling (flow_engine.cpp).
  double weight = 1.0;
  /// TCP window analogue: caps the flow's rate at window/RTT so untuned
  /// buffers reproduce the Figure 5 per-stream ceiling. 0 = uncapped.
  Bytes window = 0;
  /// Unresponsive constant-rate flow (CBR cross traffic): takes exactly
  /// this rate off every link on its path instead of a fair share.
  BitsPerSec pinned_rate = 0;
  /// Opaque caller context echoed in FlowDone.
  std::uint64_t tag = 0;
};

/// Terminal record for one flow, passed to its completion callback.
struct FlowDone {
  FlowId id{};
  /// True when every byte drained; false for cancel() and engine teardown.
  bool ok = false;
  /// Payload bytes delivered (== spec.bytes on success).
  Bytes transferred = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::uint64_t tag = 0;
};

struct FluidConfig {
  /// Model TCP slow start as a one-time byte deficit folded into the flow
  /// at its first rate assignment (DESIGN.md §5f); without it short
  /// window-capped transfers finish unrealistically fast.
  bool model_slow_start = true;
  /// Renegotiation batching quantum: changes arriving within one quantum
  /// coalesce into a single recompute. 0 = renegotiate at the same instant
  /// (still coalescing same-timestamp changes).
  SimDuration reneg_quantum = 0;
};

struct FlowEngineStats {
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t flows_cancelled = 0;
  std::int64_t renegotiations = 0;
  /// Work-locality counters: totals of links / flows actually recomputed
  /// across all renegotiations (a start or finish must only touch the
  /// links it shares capacity with).
  std::int64_t links_recomputed = 0;
  std::int64_t flows_recomputed = 0;
  /// Rate classes re-rated (flows of one class share a rate, so a
  /// renegotiation solves over classes; flows_recomputed sums their sizes).
  std::int64_t classes_recomputed = 0;
  Bytes bytes_completed = 0;
};

}  // namespace gdmp::flow
