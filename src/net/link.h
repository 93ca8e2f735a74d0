// Unidirectional point-to-point link with a drop-tail queue.
//
// The link serializes packets at `bandwidth` bits/s, then delays them by
// `propagation`. Packets arriving while `queue_capacity` bytes are already
// queued or in transmission are dropped — this drop-tail bottleneck is what
// makes tuned parallel TCP streams interact exactly as in the paper's
// CERN–ANL measurements.
//
// A packet-hop costs one kernel event (DESIGN.md §5e). The end of a
// packet's serialization, which frees its queue space, is not an event: its
// key is reserved at enqueue and the queue is drained lazily, on the next
// enqueue, of every packet whose key has passed. Deliveries are in FIFO
// order, so one armed event per link delivers the head packet and re-arms
// at the next packet's reserved key. Both keys are reserved in the order
// two scheduled events would take them, so every event, and every drop
// decision, lands exactly where it would if both were real events.
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace gdmp::net {

struct LinkConfig {
  BitsPerSec bandwidth = 45 * kMbps;
  SimDuration propagation = 62 * kMillisecond + 500 * kMicrosecond;
  Bytes queue_capacity = 512 * kKiB;  // router buffer on this interface
};

struct LinkStats {
  std::int64_t packets_sent = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t packets_delivered = 0;
  Bytes bytes_sent = 0;    // wire bytes serialized
  Bytes bytes_dropped = 0;
  Bytes bytes_delivered = 0;  // wire bytes handed to the receiver
};

class Link {
 public:
  /// Inline callable: link delivery is the per-packet fast path, so the
  /// receive hook must not cost a heap-backed std::function.
  using Deliver = sim::InlineFunction<void(const Packet&), 64>;

  /// The simulator must outlive the link: ~Link() cancels its event.
  Link(sim::Simulator& simulator, LinkConfig config, Deliver deliver);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Accepts a packet for transmission; drops it if the queue is full.
  /// Returns false on drop.
  bool enqueue(const Packet& packet);

  const LinkConfig& config() const noexcept { return config_; }
  const LinkStats& stats() const noexcept { return stats_; }

  /// Changes the serialization rate in place (mid-run capacity changes:
  /// degraded production links, maintenance windows). Packets already
  /// being serialized keep their old completion times. Fluid-model users
  /// must also call FlowEngine::on_link_changed().
  void set_bandwidth(BitsPerSec bandwidth) noexcept {
    config_.bandwidth = bandwidth;
  }

  /// The queueing delay a newly arriving packet would see right now.
  SimDuration queueing_delay() const noexcept;

  /// Cumulative time the transmitter has spent serializing bytes — the
  /// real busy-time integral, as opposed to the instantaneous
  /// queueing_delay() above. busy_time()/elapsed is the true utilization.
  SimDuration busy_time() const noexcept;

  /// Exposes the byte/drop counters under `scope` and caches a
  /// "utilization" gauge that sample_utilization() publishes into.
  void set_metrics(const obs::MetricsScope& scope);

  /// Busy-time fraction since the previous call (or since t=0 for the
  /// first), published to the cached gauge and returned. Sampling is
  /// caller-driven — a periodic self-timer would keep the event queue
  /// non-empty and Simulator::run() would never terminate. Called twice at
  /// the same instant (an empty window), it returns the previous fraction
  /// and publishes nothing: there is no new interval to measure, and a
  /// fabricated 0 would corrupt the utilization series.
  double sample_utilization();

 private:
  /// A packet accepted but not yet delivered, with the reserved kernel keys
  /// of its serialization end `(done, release_seq)` and of its delivery
  /// `(done + propagation, delivery_seq)`.
  struct InFlight {
    SimTime done;
    std::uint64_t release_seq;
    std::uint64_t delivery_seq;
    Bytes size;
    Packet packet;
  };

  /// Frees the queue space of every packet whose serialization end has
  /// passed.
  void release_serialized();
  /// Points the delivery event at the head packet's reserved key.
  void arm_delivery();
  /// The delivery event: hands the head packet to the receiver.
  void deliver_head();

  sim::Simulator& simulator_;
  LinkConfig config_;
  Deliver deliver_;
  LinkStats stats_;
  Bytes backlog_ = 0;  // bytes of the in-flight packets not yet released
  std::size_t released_ = 0;  // in_flight_ prefix already out of backlog_
  SimTime busy_until_ = 0;  // when the transmitter becomes idle
  SimDuration busy_time_ = 0;  // serialization time accumulated so far
  obs::Gauge* utilization_gauge_ = nullptr;
  SimTime sample_anchor_ = 0;         // window start of the last sample
  SimDuration sample_busy_base_ = 0;  // busy_time() at the window start
  double last_utilization_ = 0.0;     // returned for empty sample windows
  /// FIFO: serialization ends and deliveries both come in enqueue order
  /// (the transmitter is work-conserving and the propagation delay is
  /// constant). A deque, so its memory follows the packets in flight.
  std::deque<InFlight> in_flight_;
  /// Armed at the head packet's delivery key while in_flight_ is non-empty.
  sim::EventHandle delivery_;
};

}  // namespace gdmp::net
