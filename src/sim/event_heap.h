// Index-tracked 4-ary min-heap with generation-tagged slots: the data
// structure behind Simulator's event queue.
//
// The previous kernel used std::priority_queue plus two salted hash sets
// (live/cancelled) and lazy deletion: every schedule/pop/cancel paid hash
// lookups, and the dominant TCP pattern — schedule an RTO, cancel it on the
// next ack — left a tombstone to be drained later. Here every scheduled
// event owns a *slot* (stable index + 64-bit generation) and the heap tracks
// each slot's position, so:
//  * cancel() removes the entry in place (swap with the last node, sift) —
//    O(log n), no tombstones, no hash sets;
//  * reschedule() re-keys the entry in place, keeping the slot and its
//    callback — the re-arm pattern costs one sift and zero allocations;
//  * handles are {slot, generation} pairs: a handle to a fired or cancelled
//    event can never alias a reused slot (the generation advances on free).
// Heap positions sit in a dense array indexed by slot, away from the slots'
// callables, so the position writes of a sift stay in a few cache lines.
//
// Determinism: ordering is the strict total order (time, seq) — seq is the
// kernel's monotonically increasing schedule counter — so pop order is
// independent of the heap's internal layout. A 4-ary layout is used because
// the hot loop is pop-dominated (sift-down touches 4 children per level but
// halves the depth, and all 4 fit in one cache line pair).
//
// Firing protocol, in place: begin_firing() flags the minimum as firing and
// leaves it at the root, and its callable runs in its own slot
// (firing_fn()). Nothing can displace the root meanwhile: every event
// scheduled, rescheduled or cancelled during the callback keys after the
// firing (time, seq), and slots live in a deque, so the callable never
// moves. reschedule()/cancel() on the firing handle only record what
// finish_firing() does next: re-key the root and sift it down once for a
// re-arm (how self-re-arming timers and link deliveries keep one callback
// across fires), or remove the root and free the slot.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/inline_function.h"

namespace gdmp::sim {

/// Identifies a scheduled event so it can be cancelled or rescheduled
/// before (or while) it fires. Default-constructed handles are invalid;
/// handles to fired/cancelled events are harmlessly stale.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const noexcept { return slot_plus1_ != 0; }

 private:
  template <typename Fn>
  friend class EventHeap;
  EventHandle(std::uint32_t slot, std::uint64_t gen) noexcept
      : slot_plus1_(slot + 1), gen_(gen) {}
  std::uint32_t slot_index() const noexcept { return slot_plus1_ - 1; }

  std::uint32_t slot_plus1_ = 0;
  std::uint64_t gen_ = 0;
};

template <typename Fn>
class EventHeap {
 public:
  struct Minimum {
    SimTime time;
    std::uint64_t seq;
  };

  /// Pending events; the firing event is not counted.
  std::size_t size() const noexcept {
    return heap_.size() - (firing_slot_ == kNoSlot ? 0 : 1);
  }
  bool empty() const noexcept { return size() == 0; }

  /// Scheduled events currently flagged as daemons (the firing event is not
  /// counted). Simulator::run() stops when only daemons remain:
  /// size() == daemon_count().
  std::size_t daemon_count() const noexcept { return daemon_count_; }

  /// Flags or clears an event's daemon status (periodic monitoring ticks
  /// that must never keep the simulation alive). Sticky across the firing
  /// protocol: a daemon that re-arms stays a daemon. Returns false for
  /// stale handles.
  bool set_daemon(EventHandle h, bool on) noexcept {
    Slot* s = resolve(h);
    if (s == nullptr) return false;
    if (s->state == Slot::kScheduled && s->daemon != on) {
      if (on) {
        ++daemon_count_;
      } else {
        --daemon_count_;
      }
    }
    s->daemon = on;
    return true;
  }

  /// Earliest (time, seq) in the heap; undefined when empty or firing.
  Minimum peek() const noexcept {
    assert(!heap_.empty() && firing_slot_ == kNoSlot);
    return {heap_[0].time, heap_[0].seq};
  }

  /// Pre-sizes the heap vector, the position array and the free list for
  /// `events` concurrently scheduled events, so push() on the hot path
  /// never grows a vector until the population exceeds the reservation.
  /// (The slot pool is a deque — block-granular growth, no reallocation to
  /// front-load.)
  void reserve(std::size_t events) {
    heap_.reserve(events);
    pos_.reserve(events);
    free_slots_.reserve(events);
  }

  EventHandle push(SimTime time, std::uint64_t seq, Fn fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.state = Slot::kScheduled;
    const std::uint32_t pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(Node{time, seq, slot});
    pos_[slot] = pos;
    sift_up(pos);
    return EventHandle(slot, s.gen);
  }

  /// True while the event is pending or currently executing.
  bool live(EventHandle h) const noexcept {
    const Slot* s = resolve(h);
    return s != nullptr;
  }

  /// Removes a pending event in place; returns false for stale handles.
  /// Cancelling the firing event suppresses any pending re-arm.
  bool cancel(EventHandle h) noexcept {
    Slot* s = resolve(h);
    if (s == nullptr) return false;
    if (s->state == Slot::kFiring) {
      firing_cancelled_ = true;
      return true;
    }
    if (s->daemon) --daemon_count_;
    remove_node(pos_[h.slot_index()]);
    release_slot(h.slot_index());
    return true;
  }

  /// Re-keys a pending event to (time, seq), keeping slot and callback.
  /// Works on the firing event (re-keys it after the callback returns).
  /// Returns false for stale handles.
  bool reschedule(EventHandle h, SimTime time, std::uint64_t seq) noexcept {
    Slot* s = resolve(h);
    if (s == nullptr) return false;
    if (s->state == Slot::kFiring) {
      firing_cancelled_ = false;
      rearm_ = true;
      rearm_time_ = time;
      rearm_seq_ = seq;
      return true;
    }
    const std::uint32_t pos = pos_[h.slot_index()];
    heap_[pos].time = time;
    heap_[pos].seq = seq;
    if (!sift_up(pos)) sift_down(pos);
    return true;
  }

  /// Starts firing the minimum event: it stays at the root, flagged as
  /// firing. Call firing_fn()() next, then finish_firing(). Undefined when
  /// empty.
  Minimum begin_firing() noexcept {
    assert(!heap_.empty());
    assert(firing_slot_ == kNoSlot && "begin_firing is not reentrant");
    const Node& top = heap_[0];
    Slot& s = slots_[top.slot];
    if (s.daemon) --daemon_count_;
    s.state = Slot::kFiring;
    firing_slot_ = top.slot;
    firing_cancelled_ = false;
    rearm_ = false;
    return {top.time, top.seq};
  }

  /// The firing event's callable, invoked in its own slot.
  Fn& firing_fn() noexcept { return slots_[firing_slot_].fn; }

  /// Completes the firing protocol: re-keys the root if the callback
  /// rescheduled itself (and was not subsequently cancelled), otherwise
  /// removes the root, destroys the callback and frees the slot.
  void finish_firing() {
    assert(firing_slot_ != kNoSlot);
    const std::uint32_t slot = firing_slot_;
    assert(heap_[0].slot == slot && "the firing event left the root");
    firing_slot_ = kNoSlot;
    if (rearm_ && !firing_cancelled_) {
      Slot& s = slots_[slot];
      s.state = Slot::kScheduled;
      if (s.daemon) ++daemon_count_;
      heap_[0].time = rearm_time_;
      heap_[0].seq = rearm_seq_;
      sift_down(0);
    } else {
      remove_node(0);
      release_slot(slot);
    }
    rearm_ = false;
  }

 private:
  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    enum State : std::uint8_t { kFree, kScheduled, kFiring };

    Fn fn;
    std::uint64_t gen = 1;
    State state = kFree;
    bool daemon = false;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool earlier(const Node& a, const Node& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  const Slot* resolve(EventHandle h) const noexcept {
    if (!h.valid()) return nullptr;
    const std::uint32_t slot = h.slot_index();
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    if (s.gen != h.gen_ || s.state == Slot::kFree) return nullptr;
    return &s;
  }
  Slot* resolve(EventHandle h) noexcept {
    return const_cast<Slot*>(std::as_const(*this).resolve(h));
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    // gdmp-lint: hot-alloc — slot pool and position array grow only while the live-event population sets a new high-water mark; steady state always hits the free list above
    slots_.emplace_back();
    pos_.push_back(0);
    // Worst case every slot is freed at once (a drain after cancel storms),
    // so keep the free list's capacity ahead of the pool: release_slot then
    // never allocates, even outside the steady state.
    if (free_slots_.capacity() < slots_.size()) {
      free_slots_.reserve(slots_.size() * 2);
    }
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.fn.reset();
    ++s.gen;
    s.state = Slot::kFree;
    s.daemon = false;
    free_slots_.push_back(slot);
  }

  /// Removes the node at heap position `pos` (swap-with-last + sift).
  void remove_node(std::uint32_t pos) noexcept {
    const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
    if (pos != last) {
      heap_[pos] = heap_[last];
      pos_[heap_[pos].slot] = pos;
      heap_.pop_back();
      if (!sift_up(pos)) sift_down(pos);
    } else {
      heap_.pop_back();
    }
  }

  /// Returns true if the node moved.
  bool sift_up(std::uint32_t pos) noexcept {
    const Node node = heap_[pos];
    std::uint32_t i = pos;
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 4;
      if (!earlier(node, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].slot] = i;
      i = parent;
    }
    if (i == pos) return false;
    heap_[i] = node;
    pos_[node.slot] = i;
    return true;
  }

  void sift_down(std::uint32_t pos) noexcept {
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    const Node node = heap_[pos];
    std::uint32_t i = pos;
    while (true) {
      const std::uint64_t first_child = 4ull * i + 1;
      if (first_child >= n) break;
      const std::uint32_t last_child = static_cast<std::uint32_t>(
          first_child + 4 <= n ? first_child + 4 : n);
      std::uint32_t best = static_cast<std::uint32_t>(first_child);
      for (std::uint32_t c = best + 1; c < last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], node)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].slot] = i;
      i = best;
    }
    if (i != pos) {
      heap_[i] = node;
      pos_[node.slot] = i;
    }
  }

  std::size_t daemon_count_ = 0;
  std::vector<Node> heap_;
  // Slots never move (deque), so growing the pool while a callback runs in
  // its slot cannot invalidate anything; freed slots are recycled via the
  // free list with a bumped generation.
  std::deque<Slot> slots_;
  // Heap position of each slot's node, indexed by slot (stale for a free
  // slot); grows with the slot pool.
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> free_slots_;

  // Firing protocol state (single-threaded kernel: at most one event fires
  // at a time; nested run() calls are not supported). The firing event
  // stays at heap_[0] until finish_firing().
  std::uint32_t firing_slot_ = kNoSlot;
  bool firing_cancelled_ = false;
  bool rearm_ = false;
  SimTime rearm_time_ = 0;
  std::uint64_t rearm_seq_ = 0;
};

}  // namespace gdmp::sim
