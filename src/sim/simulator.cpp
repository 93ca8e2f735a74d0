#include "sim/simulator.h"

#include <cassert>

namespace gdmp::sim {

EventHandle Simulator::schedule_at(SimTime when, Callback fn) {
  assert(fn && "scheduling a null callback");
  if (when < now_) when = now_;
  return heap_.push(when, next_seq_++, std::move(fn));
}

void Simulator::cancel(EventHandle handle) { heap_.cancel(handle); }

bool Simulator::reschedule_at(EventHandle handle, SimTime when) {
  if (when < now_) when = now_;
  // The fresh sequence number preserves the FIFO tie-break semantics of a
  // cancel+schedule pair: a rescheduled event fires after events already
  // scheduled at the same timestamp.
  return heap_.reschedule(handle, when, next_seq_++);
}

EventHandle Simulator::schedule_at(SimTime when, std::uint64_t seq,
                                   Callback fn) {
  assert(fn && "scheduling a null callback");
  assert(seq < next_seq_ && !has_fired(when, seq) && "key not reserved");
  return heap_.push(when, seq, std::move(fn));
}

bool Simulator::reschedule_at(EventHandle handle, SimTime when,
                              std::uint64_t seq) {
  assert(seq < next_seq_ && !has_fired(when, seq) && "key not reserved");
  return heap_.reschedule(handle, when, seq);
}

void Simulator::fire_next() {
  // The event fires in place at the heap root (event_heap.h).
  const auto top = heap_.begin_firing();
  now_ = top.time;
  passed_ = top;
  ++fired_;
  heap_.firing_fn()();
  heap_.finish_firing();
}

std::size_t Simulator::run() {
  std::size_t count = 0;
  stop_requested_ = false;
  // Daemons (monitoring heartbeats) never hold the run open: stop as soon
  // as every remaining event is one.
  while (!stop_requested_ && heap_.size() > heap_.daemon_count()) {
    fire_next();
    ++count;
  }
  return count;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  stop_requested_ = false;
  while (!stop_requested_ && !heap_.empty() &&
         heap_.peek().time <= deadline) {
    fire_next();
    ++count;
  }
  // Drained: every event up to the deadline has fired, so every key reserved
  // so far at those times has passed too. (After a stop the clock still
  // jumps, but only the keys before the last event fired have passed.)
  if (!stop_requested_ && now_ <= deadline) passed_ = {deadline, next_seq_};
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fire_next();
  return true;
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, SimDuration period,
                             Callback tick)
    : simulator_(simulator), period_(period), tick_(std::move(tick)) {
  assert(period_ > 0);
  assert(tick_);
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(pending_);
  pending_ = EventHandle();
}

void PeriodicTimer::set_daemon(bool on) {
  daemon_ = on;
  simulator_.set_daemon(pending_, on);  // no-op on a stale/unarmed handle
}

void PeriodicTimer::arm() {
  // Re-arm in place: when called from within the tick event's own callback
  // (the steady state), this keeps the slot, the closure and the weak guard
  // alive across fires — no per-tick construction at all (the slot's daemon
  // flag survives the firing protocol too).
  if (simulator_.reschedule(pending_, period_)) return;
  // First arm after start(): the timer may be destroyed while an event is
  // in flight; the weak alive flag keeps the callback from touching a dead
  // object.
  std::weak_ptr<bool> alive = alive_;
  pending_ = simulator_.schedule(period_, [this, alive] {
    if (alive.expired() || !running_) return;
    tick_();
    if (running_) arm();
  });
  if (daemon_) simulator_.set_daemon(pending_, true);
}

}  // namespace gdmp::sim
