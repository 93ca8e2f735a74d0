#include "net/link.h"

#include <utility>

namespace gdmp::net {

void InFlightPool::grow() {
  const Index base = static_cast<Index>(chunks_.size()) * kChunkSize;
  // Runs only when the network-wide in-flight population sets a new
  // high-water mark; a steady-state acquire() takes the free list.
  chunks_.push_back(std::make_unique<InFlight[]>(kChunkSize));
  InFlight* chunk = chunks_.back().get();
  for (Index k = 0; k < kChunkSize; ++k) {
    chunk[k].next = k + 1 < kChunkSize ? base + k + 1 : free_;
  }
  free_ = base;
}

Link::Link(sim::Simulator& simulator, InFlightPool& pool, LinkConfig config,
           Deliver deliver)
    : simulator_(simulator),
      pool_(pool),
      config_(config),
      deliver_(std::move(deliver)) {}

Link::~Link() {
  simulator_.cancel(delivery_);
  while (head_ != InFlightPool::kNone) {
    const InFlightPool::Index next = pool_[head_].next;
    pool_.release(head_);
    head_ = next;
  }
}

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

  const InFlightPool::Index index = pool_.acquire();
  InFlight& entry = pool_[index];
  entry.done = done;
  // Release first, then delivery: the order in which scheduling the two as
  // events would take their sequence numbers.
  entry.release_seq = simulator_.reserve_seq();
  entry.delivery_seq = simulator_.reserve_seq();
  entry.size = size;
  entry.packet = packet;
  if (unreleased_ == InFlightPool::kNone) unreleased_ = index;
  if (tail_ == InFlightPool::kNone) {
    head_ = tail_ = index;
    arm_delivery();
  } else {
    pool_[tail_].next = index;
    tail_ = index;
  }
  return true;
}

void Link::release_serialized() {
  while (unreleased_ != InFlightPool::kNone) {
    const InFlight& next = pool_[unreleased_];
    if (!simulator_.has_fired(next.done, next.release_seq)) return;
    backlog_ -= next.size;
    unreleased_ = next.next;
  }
}

void Link::arm_delivery() {
  const InFlight& head = pool_[head_];
  const SimTime at = head.done + config_.propagation;
  // Re-keys the firing event in place when called from deliver_head().
  if (simulator_.reschedule_at(delivery_, at, head.delivery_seq)) return;
  // gdmp-lint: owned-callback — ~Link() cancels this event and the Simulator outlives every Link
  delivery_ = simulator_.schedule_at(at, head.delivery_seq, [this] {
    deliver_head();
  });
}

void Link::deliver_head() {
  const InFlightPool::Index index = head_;
  const InFlight& head = pool_[index];
  // A delivery follows its own release, which may not have been drained.
  if (unreleased_ == index) {
    backlog_ -= head.size;
    unreleased_ = head.next;
  }
  ++stats_.packets_delivered;
  stats_.bytes_delivered += head.size;
  // Unlink the packet and re-arm first: the receiver may enqueue on this
  // link again, or destroy it. The unlinked entry stays put (chunks never
  // move) until it is handed back, through a reference that outlives the
  // link.
  head_ = head.next;
  if (head_ == InFlightPool::kNone) {
    tail_ = InFlightPool::kNone;
  } else {
    arm_delivery();
  }
  InFlightPool& pool = pool_;
  deliver_(head.packet);
  pool.release(index);
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
