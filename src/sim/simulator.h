// Discrete-event simulation kernel.
//
// Every dynamic behaviour in the reproduced grid — packet arrivals, tape
// mounts, GDMP server work, analysis jobs — is an event on one Simulator.
// The kernel is single-threaded and fully deterministic: events with equal
// timestamps fire in scheduling order (FIFO tie-break by sequence number),
// so a given seed always produces byte-identical traces.
//
// Fast path (see DESIGN.md §5e): callbacks are InlineFunction<void(), 64> —
// typical captures (`this`, a weak liveness guard, a few ints) live in the
// event slot, never on the heap — and the queue is an index-tracked 4-ary
// min-heap (event_heap.h) with O(log n) in-place cancellation and a fused
// cancel+schedule (`reschedule`) for re-arm patterns such as the TCP RTO
// timer. Steady-state schedule/fire/cancel/reschedule perform zero heap
// allocations (pinned by a regression test).
#pragma once

#include <cstdint>

#include "common/crc32.h"
#include "common/types.h"
#include "sim/event_heap.h"
#include "sim/inline_function.h"

namespace gdmp::sim {

/// Kernel callback type; also used by subsystems (disk completions, stager
/// queues) whose closures feed the kernel unchanged.
using Callback = InlineFunction<void(), 64>;

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Pre-sizes the event heap for `events` concurrently scheduled events;
  /// workloads that know their population call this once at setup so the
  /// schedule/fire hot path never grows the heap's vectors.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  EventHandle schedule(SimDuration delay, Callback fn) {
    return schedule_at(delay > 0 ? now_ + delay : now_, std::move(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to `now()` if in the past).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Cancels a pending event. Idempotent; cancelling a fired or invalid
  /// handle is a no-op. Cancelling the currently executing event suppresses
  /// a pending reschedule() of it.
  void cancel(EventHandle handle);

  /// Fused cancel+schedule: moves a pending event to `delay` from now,
  /// keeping its callback and handle (the event takes a fresh FIFO sequence
  /// number, as a cancel+schedule pair would). May be called from within the
  /// event's own callback to re-arm it — the callback object persists across
  /// fires. Returns false (and does nothing) if the handle is invalid,
  /// already fired, or cancelled; the caller then schedules afresh.
  bool reschedule(EventHandle handle, SimDuration delay) {
    return reschedule_at(handle, delay > 0 ? now_ + delay : now_);
  }

  /// reschedule() with an absolute target time (clamped to `now()`).
  bool reschedule_at(EventHandle handle, SimTime when);

  /// Takes the next FIFO sequence number without scheduling anything. An
  /// event later scheduled at `(when, seq)` by the overloads below fires
  /// exactly where one scheduled now at `when` would: after same-time
  /// events scheduled before this call, before those scheduled after it.
  /// Lets a component that knows its event times in advance (a link's
  /// serialization and delivery completions) keep them out of the heap.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// True if an event keyed `(when, seq)` would already have fired at this
  /// point of the run: its key precedes the event now firing, or, between
  /// runs, the last event fired. After a run_until() that drained without a
  /// stop, every key at or before its deadline reserved so far counts.
  bool has_fired(SimTime when, std::uint64_t seq) const noexcept {
    return when < passed_.time ||
           (when == passed_.time && seq < passed_.seq);
  }

  /// schedule_at() / reschedule_at() at a key from reserve_seq() that has
  /// not fired yet. The reschedule form re-arms the firing event from its
  /// own callback, like reschedule().
  EventHandle schedule_at(SimTime when, std::uint64_t seq, Callback fn);
  bool reschedule_at(EventHandle handle, SimTime when, std::uint64_t seq);

  /// Runs events until only daemon events (if any) remain. Returns the
  /// number fired. Daemons interleave normally while the queue holds real
  /// work; they never keep the run alive by themselves.
  std::size_t run();

  /// Runs events with time <= `deadline` and advances the clock to
  /// `deadline` (even if the queue empties earlier). Returns events fired.
  std::size_t run_until(SimTime deadline);

  /// Runs a single event if any is pending. Returns false when idle.
  bool step();

  /// Marks (or unmarks) a pending event as a daemon: a housekeeping event
  /// — e.g. a monitoring heartbeat — that run() does not wait for. Sticky
  /// across reschedule()/re-arm. Returns false for stale handles.
  bool set_daemon(EventHandle handle, bool on = true) noexcept {
    return heap_.set_daemon(handle, on);
  }

  /// Pending (non-cancelled) event count.
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Pending events currently flagged as daemons.
  std::size_t daemon_pending() const noexcept { return heap_.daemon_count(); }

  /// Total events fired since construction.
  std::uint64_t events_fired() const noexcept { return fired_; }

  /// Stops `run()` / `run_until()` after the current event returns.
  void request_stop() noexcept { stop_requested_ = true; }

  /// This run's synthetic-CRC memo (DESIGN.md §5l), shared by every GridFTP
  /// server, client and URL copier on the simulator. A new run starts cold.
  SyntheticCrcMemo& crc_memo() noexcept { return crc_memo_; }

 private:
  /// Pops and executes the minimum event (advancing the clock to it).
  void fire_next();

  EventHeap<Callback> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  /// Every key below this one has fired (see has_fired()).
  EventHeap<Callback>::Minimum passed_{0, 0};
  std::uint64_t fired_ = 0;
  bool stop_requested_ = false;
  SyntheticCrcMemo crc_memo_;
};

/// Repeating timer built on the kernel; used for periodic monitoring,
/// retry loops and cross-traffic sources. Cancels itself on destruction.
/// Re-arms via Simulator::reschedule, so one persistent callback (and one
/// weak liveness guard) serves every tick — the steady state allocates
/// nothing.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, SimDuration period, Callback tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Marks the timer's tick event as a daemon (see Simulator::set_daemon):
  /// the timer then never keeps Simulator::run() alive. Applies to the
  /// current pending tick and every future arm.
  void set_daemon(bool on = true);
  bool daemon() const noexcept { return daemon_; }

 private:
  void arm();

  Simulator& simulator_;
  SimDuration period_;
  Callback tick_;
  EventHandle pending_;
  bool running_ = false;
  bool daemon_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::sim
