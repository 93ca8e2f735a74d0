#include "net/link.h"

#include <utility>

namespace gdmp::net {

Link::Link(sim::Simulator& simulator, LinkConfig config, Deliver deliver)
    : simulator_(simulator),
      config_(config),
      deliver_(std::move(deliver)) {}

Link::~Link() { simulator_.cancel(delivery_); }

bool Link::enqueue(const Packet& packet) {
  const Bytes size = packet.wire_size();
  release_serialized();
  if (backlog_ + size > config_.queue_capacity) {
    ++stats_.packets_dropped;
    stats_.bytes_dropped += size;
    return false;
  }
  backlog_ += size;
  ++stats_.packets_sent;
  stats_.bytes_sent += size;

  const SimTime start = std::max(busy_until_, simulator_.now());
  const SimTime done = start + transmission_delay(size, config_.bandwidth);
  busy_until_ = done;
  busy_time_ += done - start;

  // Release first, then delivery: the order in which scheduling the two as
  // events would take their sequence numbers.
  const std::uint64_t release_seq = simulator_.reserve_seq();
  const std::uint64_t delivery_seq = simulator_.reserve_seq();
  in_flight_.push_back({done, release_seq, delivery_seq, size, packet});
  if (in_flight_.size() == 1) arm_delivery();
  return true;
}

void Link::release_serialized() {
  while (released_ < in_flight_.size()) {
    const InFlight& next = in_flight_[released_];
    if (!simulator_.has_fired(next.done, next.release_seq)) return;
    backlog_ -= next.size;
    ++released_;
  }
}

void Link::arm_delivery() {
  const InFlight& head = in_flight_.front();
  const SimTime at = head.done + config_.propagation;
  // Re-keys the firing event in place when called from deliver_head().
  if (simulator_.reschedule_at(delivery_, at, head.delivery_seq)) return;
  // gdmp-lint: owned-callback — ~Link() cancels this event and the Simulator outlives every Link
  delivery_ = simulator_.schedule_at(at, head.delivery_seq, [this] {
    deliver_head();
  });
}

void Link::deliver_head() {
  InFlight& head = in_flight_.front();
  // A delivery follows its own release, which may not have been drained.
  if (released_ > 0) {
    --released_;
  } else {
    backlog_ -= head.size;
  }
  ++stats_.packets_delivered;
  stats_.bytes_delivered += head.size;
  // Move the packet out and re-arm first: the receiver may enqueue on this
  // link again, or destroy it.
  const Packet arrived = std::move(head.packet);
  in_flight_.pop_front();
  if (!in_flight_.empty()) arm_delivery();
  deliver_(arrived);
}

SimDuration Link::queueing_delay() const noexcept {
  const SimTime now = simulator_.now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

SimDuration Link::busy_time() const noexcept {
  // busy_time_ is credited at enqueue, including serialization scheduled
  // beyond now; report only the part already elapsed.
  return busy_time_ - queueing_delay();
}

void Link::set_metrics(const obs::MetricsScope& scope) {
  utilization_gauge_ = scope.gauge("utilization");
  scope.expose("bytes_sent", &stats_.bytes_sent);
  scope.expose("bytes_delivered", &stats_.bytes_delivered);
  scope.expose("packets_dropped", &stats_.packets_dropped);
}

double Link::sample_utilization() {
  const SimTime now = simulator_.now();
  const SimDuration window = now - sample_anchor_;
  if (window <= 0) {
    // No sim time has passed since the last sample: there is nothing to
    // measure. Keep the anchors and the gauge as they are — publishing a
    // fabricated 0 (or 0/0) would put a bogus point in the series.
    return last_utilization_;
  }
  const SimDuration busy = busy_time();
  const double fraction = static_cast<double>(busy - sample_busy_base_) /
                          static_cast<double>(window);
  sample_anchor_ = now;
  sample_busy_base_ = busy;
  last_utilization_ = fraction;
  if (utilization_gauge_ != nullptr) utilization_gauge_->set(fraction);
  return fraction;
}

}  // namespace gdmp::net
