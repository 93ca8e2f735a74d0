// Single-timer completion queue for coarse-grained subsystems.
//
// The MSS's tape drives complete work at known future times, but the
// completion closures are fat (paths, FileInfo, result callbacks).
// Scheduling each completion directly would push those captures into the
// kernel's event slots (spilling past the inline buffer) and keep one
// kernel event per outstanding request. A TimerQueue instead keeps the
// payloads in an ordered map and arms ONE kernel event — re-armed in place
// via Simulator::reschedule — for the earliest due time. The kernel sees a
// single 24-byte closure regardless of backlog depth.
//
// Determinism: completions fire in (due time, insertion order) — std::multimap
// preserves insertion order for equal keys — and each fire consumes a fresh
// kernel sequence number, so interleaving with other same-time events is
// stable across runs.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "common/types.h"
#include "sim/simulator.h"

namespace gdmp::sim {

class TimerQueue {
 public:
  explicit TimerQueue(Simulator& simulator) : simulator_(simulator) {}

  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  ~TimerQueue() { simulator_.cancel(timer_); }

  /// Runs `fn` at absolute time `due` (clamped to now if in the past).
  void schedule_at(SimTime due, Callback fn) {
    if (due < simulator_.now()) due = simulator_.now();
    const bool new_front =
        completions_.empty() || due < completions_.begin()->first;
    // gdmp-lint: hot-alloc — completion multimap is node-based; one node per pending timer
    completions_.emplace(due, std::move(fn));
    if (new_front) arm();
  }

 private:
  void arm() {
    // In the steady state the timer event re-arms itself in place (possibly
    // from within its own callback); only the first arm builds a closure.
    if (simulator_.reschedule_at(timer_, completions_.begin()->first)) return;
    std::weak_ptr<bool> alive = alive_;
    timer_ = simulator_.schedule_at(completions_.begin()->first,
                                    [this, alive] {
                                      if (alive.expired()) return;
                                      fire();
                                    });
  }

  void fire() {
    const auto it = completions_.begin();
    Callback fn = std::move(it->second);
    completions_.erase(it);
    if (!completions_.empty()) arm();
    // The callback may schedule new completions; if the queue was empty the
    // arm() they trigger re-arms this still-firing event in place.
    fn();
  }

  Simulator& simulator_;
  std::multimap<SimTime, Callback> completions_;
  EventHandle timer_;
  /// Liveness sentinel: the armed event can outlive the queue's owner when
  /// a site is torn down mid-run.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::sim
