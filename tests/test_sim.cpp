// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "sim/simulator.h"

namespace gdmp::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(30, [&] { order.push_back(3); });
  simulator.schedule(10, [&] { order.push_back(1); });
  simulator.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, EqualTimesFireFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule(5, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator simulator;
  SimTime inner_fired = -1;
  simulator.schedule(10, [&] {
    simulator.schedule(5, [&] { inner_fired = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator simulator;
  simulator.schedule(100, [] {});
  simulator.run();
  SimTime fired = -1;
  simulator.schedule_at(5, [&] { fired = simulator.now(); });
  simulator.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventHandle handle = simulator.schedule(10, [&] { fired = true; });
  simulator.cancel(handle);
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator simulator;
  int count = 0;
  const EventHandle handle = simulator.schedule(1, [&] { ++count; });
  simulator.run();
  simulator.cancel(handle);  // must not poison future bookkeeping
  simulator.schedule(1, [&] { ++count; });
  simulator.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(10, [&] { ++fired; });
  simulator.schedule(20, [&] { ++fired; });
  simulator.schedule(30, [&] { ++fired; });
  EXPECT_EQ(simulator.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 20);
  EXPECT_EQ(simulator.run_until(100), 1u);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator simulator;
  simulator.run_until(500);
  EXPECT_EQ(simulator.now(), 500);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1, [&] { ++fired; });
  simulator.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_FALSE(simulator.step());
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1, [&] {
    ++fired;
    simulator.request_stop();
  });
  simulator.schedule(2, [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.pending(), 1u);
}

TEST(Simulator, EqualTimesWithInterleavedCancelsKeepFifoOrder) {
  // Golden sequence: ten same-timestamp events, every third cancelled before
  // the clock reaches them. The survivors must still fire in scheduling
  // order — in-place heap removal must not disturb the FIFO tie-break.
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  handles.reserve(10);
  for (int i = 0; i < 10; ++i) {
    handles.push_back(simulator.schedule(5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10; i += 3) simulator.cancel(handles[i]);
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8}));
}

TEST(Simulator, CancelDuringCallbackOfSameTimeEvent) {
  // Event A cancels event B scheduled at the same timestamp. B is already
  // in the heap (behind A in FIFO order) and must not fire.
  Simulator simulator;
  std::vector<int> order;
  EventHandle b;
  simulator.schedule(10, [&] {
    order.push_back(1);
    simulator.cancel(b);
  });
  b = simulator.schedule(10, [&] { order.push_back(2); });
  simulator.schedule(10, [&] { order.push_back(3); });
  EXPECT_EQ(simulator.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilWithCancelledHeadPastDeadline) {
  // The earliest pending event is cancelled and the next live one lies past
  // the deadline: run_until must fire nothing and stop exactly at the
  // deadline (the cancelled head must not be mistaken for work).
  Simulator simulator;
  bool fired = false;
  const EventHandle head = simulator.schedule(10, [&] { fired = true; });
  simulator.schedule(100, [&] { fired = true; });
  simulator.cancel(head);
  EXPECT_EQ(simulator.run_until(50), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.now(), 50);
  EXPECT_EQ(simulator.pending(), 1u);
}

TEST(Simulator, RescheduleMovesEventEarlierAndLater) {
  Simulator simulator;
  std::vector<SimTime> fired_at;
  const EventHandle later = simulator.schedule(10, [&] {
    fired_at.push_back(simulator.now());
  });
  EXPECT_TRUE(simulator.reschedule_at(later, 40));  // push back
  const EventHandle earlier = simulator.schedule(30, [&] {
    fired_at.push_back(simulator.now());
  });
  EXPECT_TRUE(simulator.reschedule_at(earlier, 5));  // pull forward
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{5, 40}));
}

TEST(Simulator, RescheduleOfStaleHandleReturnsFalse) {
  Simulator simulator;
  int count = 0;
  const EventHandle fired = simulator.schedule(1, [&] { ++count; });
  simulator.run();
  EXPECT_FALSE(simulator.reschedule(fired, 10));
  const EventHandle cancelled = simulator.schedule(1, [&] { ++count; });
  simulator.cancel(cancelled);
  EXPECT_FALSE(simulator.reschedule(cancelled, 10));
  EXPECT_FALSE(simulator.reschedule(EventHandle{}, 10));
  simulator.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RescheduledEventTakesFreshFifoSequence) {
  // Rescheduling onto an occupied timestamp must behave exactly like a
  // cancel+schedule pair: the moved event goes behind events already
  // scheduled at that time.
  Simulator simulator;
  std::vector<int> order;
  const EventHandle moved = simulator.schedule(5, [&] { order.push_back(1); });
  simulator.schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(simulator.reschedule_at(moved, 20));
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Simulator, RescheduleFromOwnCallbackReArms) {
  // The RTO/PeriodicTimer pattern: an event re-arms itself from inside its
  // own callback; the callback object must persist across fires.
  Simulator simulator;
  int fires = 0;
  EventHandle handle;
  handle = simulator.schedule(10, [&] {
    ++fires;
    if (fires < 3) {
      EXPECT_TRUE(simulator.reschedule(handle, 10));
    }
  });
  simulator.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(simulator.now(), 30);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, CancelOfFiringEventSuppressesSelfRearm) {
  // An outer actor cancels the firing event from inside its callback (via a
  // nested call chain in production; directly here). A reschedule issued in
  // the same callback before the cancel must not survive.
  Simulator simulator;
  int fires = 0;
  EventHandle handle;
  handle = simulator.schedule(10, [&] {
    ++fires;
    EXPECT_TRUE(simulator.reschedule(handle, 10));
    simulator.cancel(handle);  // teardown wins over the re-arm
  });
  simulator.run_until(1000);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(simulator.pending(), 0u);
}

// ------------------------------------------------------- reserved sequences

TEST(Simulator, ReservedSeqFiresBeforeLaterSameTimeEvents) {
  // An event pushed late at a reserved key takes the FIFO place of the
  // reservation, not of the push.
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(10, [&] { order.push_back(0); });
  const std::uint64_t reserved = simulator.reserve_seq();
  simulator.schedule_at(10, [&] { order.push_back(2); });
  simulator.schedule_at(10, [&] { order.push_back(3); });
  simulator.schedule_at(10, reserved, [&] { order.push_back(1); });
  EXPECT_EQ(simulator.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, ReservedSeqSelfRearmKeepsFifoPlace) {
  // The link delivery pattern: one event re-arms itself from its own
  // callback at keys reserved earlier, interleaving with ordinary events at
  // the same timestamps exactly as separately scheduled events would.
  Simulator simulator;
  std::vector<int> order;
  const std::uint64_t first = simulator.reserve_seq();
  simulator.schedule_at(20, [&] { order.push_back(20); });
  const std::uint64_t second = simulator.reserve_seq();
  simulator.schedule_at(20, [&] { order.push_back(21); });
  EventHandle handle;
  int fires = 0;
  handle = simulator.schedule_at(10, first, [&] {
    order.push_back(fires++ == 0 ? 10 : 19);
    if (fires == 1) {
      EXPECT_TRUE(simulator.reschedule_at(handle, 20, second));
    }
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 19, 21}));
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, HasFiredInsideCallbackComparesTheFiringKey) {
  Simulator simulator;
  const std::uint64_t before = simulator.reserve_seq();
  std::uint64_t after = 0;
  bool checked = false;
  EXPECT_FALSE(simulator.has_fired(0, before));  // nothing has run yet
  simulator.schedule_at(10, [&] {
    EXPECT_TRUE(simulator.has_fired(10, before));  // same time, earlier seq
    EXPECT_FALSE(simulator.has_fired(10, after));  // same time, later seq
    EXPECT_TRUE(simulator.has_fired(9, after));    // earlier time
    EXPECT_FALSE(simulator.has_fired(11, before));  // later time
    checked = true;
  });
  after = simulator.reserve_seq();
  simulator.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, HasFiredAfterDrainedRunUntilCoversTheDeadline) {
  Simulator simulator;
  simulator.schedule_at(5, [] {});
  const std::uint64_t reserved = simulator.reserve_seq();
  simulator.run_until(20);
  // Drained: an event at (20, reserved) would have fired before the run
  // ended; one reserved now at t=20 would fire on the next run.
  EXPECT_TRUE(simulator.has_fired(20, reserved));
  EXPECT_FALSE(simulator.has_fired(21, reserved));
  const std::uint64_t late = simulator.reserve_seq();
  EXPECT_FALSE(simulator.has_fired(20, late));
  // A deadline in the past neither fires nor rewinds the passed key.
  simulator.run_until(10);
  EXPECT_TRUE(simulator.has_fired(20, reserved));
}

TEST(Simulator, HasFiredAfterRequestStopStopsAtTheLastEvent) {
  Simulator simulator;
  const std::uint64_t before = simulator.reserve_seq();
  simulator.schedule_at(5, [&] { simulator.request_stop(); });
  const std::uint64_t after = simulator.reserve_seq();
  simulator.schedule_at(7, [] {});
  simulator.run_until(100);
  // The clock jumps to the deadline, but only keys before the stopping
  // event have passed: (7, ·) is still pending.
  EXPECT_EQ(simulator.now(), 100);
  EXPECT_TRUE(simulator.has_fired(5, before));
  EXPECT_FALSE(simulator.has_fired(5, after));
  EXPECT_FALSE(simulator.has_fired(6, before));
}

TEST(Simulator, HasFiredBetweenSteps) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  const std::uint64_t middle = simulator.reserve_seq();
  simulator.schedule_at(10, [] {});
  EXPECT_FALSE(simulator.has_fired(10, middle));
  ASSERT_TRUE(simulator.step());
  EXPECT_FALSE(simulator.has_fired(10, middle));
  ASSERT_TRUE(simulator.step());
  EXPECT_TRUE(simulator.has_fired(10, middle));
  EXPECT_FALSE(simulator.step());
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator simulator;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    simulator.schedule((i * 7919) % 1000, [&] {
      if (simulator.now() < last) monotone = false;
      last = simulator.now();
    });
  }
  simulator.run();
  EXPECT_TRUE(monotone);
}

TEST(Simulator, PendingInsideCallbackExcludesFiringEvent) {
  // The firing event is not pending while its callback runs, even after it
  // re-arms itself; events it schedules are.
  Simulator simulator;
  std::vector<std::size_t> seen;
  EventHandle self;
  self = simulator.schedule(10, [&] {
    seen.push_back(simulator.pending());
    seen.push_back(simulator.daemon_pending());
    EXPECT_TRUE(simulator.reschedule(self, 5));
    seen.push_back(simulator.pending());
    simulator.schedule(1, [] {});
    seen.push_back(simulator.pending());
    seen.push_back(simulator.daemon_pending());
  });
  ASSERT_TRUE(simulator.set_daemon(self));
  simulator.schedule(20, [] {});
  EXPECT_EQ(simulator.pending(), 2u);
  EXPECT_EQ(simulator.daemon_pending(), 1u);
  ASSERT_TRUE(simulator.step());
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 0, 1, 2, 0}));
  EXPECT_EQ(simulator.pending(), 3u);  // the other, the new and the re-arm
  EXPECT_EQ(simulator.daemon_pending(), 1u);
}

// Differential test: seeded random programs run on the Simulator and on a
// naive reference kernel, an ordered std::set of (time, seq, id) with the
// firing protocol written out. Both must fire the same events in the same
// order, and agree on pending() and daemon_pending() inside every callback
// and after every event. Sequence numbers follow the kernel's contract: a
// schedule, a reschedule and a reserve_seq() each take the next one.
class ReferenceDiff {
 public:
  explicit ReferenceDiff(std::uint64_t seed) : rng_(seed) {}

  void run_program(int operations) {
    for (int op = 0; op < operations && !::testing::Test::HasFailure(); ++op) {
      settle();
      switch (draw(14)) {
        case 0:
        case 1:
        case 2: schedule(draw_delay(6)); break;
        case 3: schedule_reserved(draw_delay(4)); break;
        case 4: reserve(); break;
        case 5: cancel(any()); break;
        case 6: reschedule(any(), draw_delay(6)); break;
        case 7: reschedule_reserved(any(), draw_delay(4)); break;
        case 8: set_daemon(any(), draw(3) != 0); break;
        case 9:
        case 10:
        case 11: sim_.step(); break;
        case 12: run_until(sim_.now() + draw_delay(4)); break;
        default: run(); break;
      }
      settle();
      check_counts();
    }
    budget_ = 0;  // callbacks stop scheduling; the queue drains
    while (sim_.step()) {
    }
    settle();
    EXPECT_TRUE(queue_.empty());
    check_counts();
  }

  std::size_t fired() const noexcept { return fired_; }

 private:
  using Key = std::tuple<SimTime, std::uint64_t, int>;
  struct Event {
    EventHandle handle;
    Key key{};
    bool pending = false;
    bool firing = false;
    bool daemon = false;
  };

  std::uint64_t draw(std::uint64_t n) {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return (rng_ >> 33) % n;
  }
  SimDuration draw_delay(std::uint64_t n) {
    return static_cast<SimDuration>(draw(n));
  }
  int any() {
    return events_.empty() ? -1 : static_cast<int>(draw(events_.size()));
  }

  void insert(int id, Key key) {
    Event& e = events_[id];
    e.key = key;
    e.pending = true;
    queue_.insert(key);
    if (e.daemon) ++daemons_;
  }
  void erase(int id) {
    Event& e = events_[id];
    queue_.erase(e.key);
    e.pending = false;
    if (e.daemon) --daemons_;
  }
  bool live(int id) const {
    return id >= 0 && (events_[id].pending || events_[id].firing);
  }
  EventHandle handle(int id) const {
    return id < 0 ? EventHandle{} : events_[id].handle;
  }
  Simulator::Callback callback(int id) {
    return [this, id] { on_fire(id); };
  }

  int schedule(SimDuration delay) {
    const int id = static_cast<int>(events_.size());
    events_.emplace_back();
    events_[id].handle = sim_.schedule(delay, callback(id));
    insert(id, {sim_.now() + delay, next_seq_++, id});
    return id;
  }
  /// A key from reserve_seq(), pushed a little later (or at now, when the
  /// key has not fired yet): equal-time ties with its own FIFO place.
  std::pair<SimTime, std::uint64_t> reserved_key(SimDuration delay) {
    const std::uint64_t seq = reserved_.back();
    reserved_.pop_back();
    SimTime when = sim_.now() + delay;
    if (sim_.has_fired(when, seq)) ++when;
    return {when, seq};
  }
  void schedule_reserved(SimDuration delay) {
    if (reserved_.empty()) {
      schedule(delay);
      return;
    }
    const auto [when, seq] = reserved_key(delay);
    const int id = static_cast<int>(events_.size());
    events_.emplace_back();
    events_[id].handle = sim_.schedule_at(when, seq, callback(id));
    insert(id, {when, seq, id});
  }
  void reserve() {
    const std::uint64_t seq = sim_.reserve_seq();
    EXPECT_EQ(seq, next_seq_);
    ++next_seq_;
    reserved_.push_back(seq);
  }
  void cancel(int id) {
    sim_.cancel(handle(id));
    if (!live(id)) return;
    if (events_[id].firing) {
      cancelled_ = true;
      return;
    }
    erase(id);
  }
  void move(int id, Key key) {
    if (events_[id].firing) {
      rearm_ = true;
      cancelled_ = false;
      rearm_key_ = key;
      return;
    }
    erase(id);
    insert(id, key);
  }
  void reschedule(int id, SimDuration delay) {
    const bool expected = live(id);
    EXPECT_EQ(sim_.reschedule(handle(id), delay), expected);
    // A reschedule takes a sequence number even when the handle is stale.
    const std::uint64_t seq = next_seq_++;
    if (expected) move(id, {sim_.now() + delay, seq, id});
  }
  void reschedule_reserved(int id, SimDuration delay) {
    if (reserved_.empty() || !live(id)) {
      reschedule(id, delay);
      return;
    }
    const auto [when, seq] = reserved_key(delay);
    EXPECT_TRUE(sim_.reschedule_at(handle(id), when, seq));
    move(id, {when, seq, id});
  }
  void set_daemon(int id, bool on) {
    const bool expected = live(id);
    EXPECT_EQ(sim_.set_daemon(handle(id), on), expected);
    if (!expected) return;
    Event& e = events_[id];
    if (e.pending && e.daemon != on) {
      if (on) {
        ++daemons_;
      } else {
        --daemons_;
      }
    }
    e.daemon = on;
  }
  void run_until(SimTime deadline) {
    sim_.run_until(deadline);
    settle();
    EXPECT_TRUE(queue_.empty() || std::get<0>(*queue_.begin()) > deadline);
  }
  void run() {
    sim_.run();
    settle();
    EXPECT_EQ(queue_.size(), daemons_);  // only daemons hold nothing open
  }

  /// Completes the reference's firing protocol once the kernel's callback
  /// has returned (the kernel finished it before any later observation).
  void settle() {
    if (firing_ < 0) return;
    events_[firing_].firing = false;
    if (rearm_ && !cancelled_) insert(firing_, rearm_key_);
    firing_ = -1;
  }
  void check_counts() {
    EXPECT_EQ(sim_.pending(), queue_.size());
    EXPECT_EQ(sim_.daemon_pending(), daemons_);
  }

  void on_fire(int id) {
    settle();
    ++fired_;
    ASSERT_FALSE(queue_.empty());
    const Key top = *queue_.begin();
    ASSERT_EQ(std::get<2>(top), id) << "fire " << fired_;
    ASSERT_EQ(std::get<0>(top), sim_.now()) << "fire " << fired_;
    erase(id);
    events_[id].firing = true;
    firing_ = id;
    rearm_ = false;
    cancelled_ = false;
    check_counts();
    for (std::uint64_t n = draw(3); n > 0 && budget_ > 0; --n, --budget_) {
      switch (draw(10)) {
        case 0: reschedule(id, draw_delay(4)); break;
        case 1:  // re-arm at a key reserved in this callback
          reserve();
          reschedule_reserved(id, draw_delay(3));
          break;
        case 2:  // re-arm, then a teardown cancels it
          reschedule(id, draw_delay(4));
          cancel(id);
          break;
        case 3:  // self-cancel, then schedule a successor
          cancel(id);
          schedule(draw_delay(3));
          break;
        case 4: cancel(any()); break;
        case 5: set_daemon(id, draw(2) == 0); break;
        case 6: schedule(0); break;  // equal-time tie behind the firing event
        case 7:
          reserve();
          schedule_reserved(draw_delay(3));
          break;
        case 8: reschedule(any(), draw_delay(4)); break;
        default: set_daemon(any(), draw(2) == 0); break;
      }
      check_counts();
    }
  }

  Simulator sim_;
  std::set<Key> queue_;
  std::vector<Event> events_;
  std::vector<std::uint64_t> reserved_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t rng_;
  std::size_t daemons_ = 0;
  std::size_t fired_ = 0;
  std::int64_t budget_ = 4'000;
  int firing_ = -1;
  bool rearm_ = false;
  bool cancelled_ = false;
  Key rearm_key_{};
};

TEST(Simulator, RandomOpsMatchReferenceOrder) {
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 200 && !HasFailure(); ++seed) {
    SCOPED_TRACE(seed);
    ReferenceDiff diff(seed);
    diff.run_program(600);
    fired += diff.fired();
  }
  EXPECT_GT(fired, 50'000u);
}

TEST(Simulator, CrcMemoIsScopedToOneRun) {
  // Two runs never share synthetic-CRC entries: a key computed in one is a
  // miss in the other, so every run pays its own misses.
  Simulator first;
  Simulator second;
  const std::uint32_t crc = first.crc_memo().crc32_synthetic(7, 0, 64 * kMiB);
  EXPECT_EQ(first.crc_memo().crc32_synthetic(7, 0, 64 * kMiB), crc);
  EXPECT_EQ(first.crc_memo().hits(), 1u);
  EXPECT_EQ(second.crc_memo().crc32_synthetic(7, 0, 64 * kMiB), crc);
  EXPECT_EQ(second.crc_memo().hits(), 0u);
  EXPECT_EQ(second.crc_memo().misses(), 1u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator simulator;
  int ticks = 0;
  PeriodicTimer timer(simulator, 10, [&] { ++ticks; });
  timer.start();
  simulator.run_until(55);
  EXPECT_EQ(ticks, 5);
  timer.stop();
  simulator.run_until(200);
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTimer, DestructionCancelsCleanly) {
  Simulator simulator;
  int ticks = 0;
  {
    PeriodicTimer timer(simulator, 10, [&] { ++ticks; });
    timer.start();
    simulator.run_until(25);
  }
  simulator.run_until(1000);
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator simulator;
  int ticks = 0;
  PeriodicTimer timer(simulator, 10, [&] { ++ticks; });
  timer.start();
  simulator.run_until(20);
  timer.stop();
  timer.start();
  simulator.run_until(40);
  EXPECT_EQ(ticks, 4);
}

// ------------------------------------------------------------ daemon events

TEST(Daemon, RunStopsWhenOnlyDaemonsRemain) {
  Simulator simulator;
  int work = 0, daemon_fires = 0;
  PeriodicTimer timer(simulator, 10, [&] { ++daemon_fires; });
  timer.set_daemon(true);
  timer.start();
  simulator.schedule(35, [&] { ++work; });
  // The periodic daemon alone must not keep run() alive: it fires while
  // real work is pending (t=10,20,30) and the run ends at the last
  // non-daemon event.
  simulator.run();
  EXPECT_EQ(work, 1);
  EXPECT_EQ(daemon_fires, 3);
  EXPECT_EQ(simulator.now(), 35);
  EXPECT_EQ(simulator.pending(), 1u);  // the rearmed daemon tick
  EXPECT_EQ(simulator.daemon_pending(), 1u);
}

TEST(Daemon, RunWithDaemonOnlyQueueIsANoOp) {
  Simulator simulator;
  bool fired = false;
  const EventHandle handle = simulator.schedule(20, [&] { fired = true; });
  ASSERT_TRUE(simulator.set_daemon(handle));
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.now(), 0);
}

TEST(Daemon, RunUntilStillFiresDaemons) {
  Simulator simulator;
  int ticks = 0;
  PeriodicTimer timer(simulator, 10, [&] { ++ticks; });
  timer.set_daemon(true);
  timer.start();
  // Bounded runs drive daemons to the deadline — only open-ended run()
  // refuses to chase them.
  simulator.run_until(55);
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(simulator.now(), 55);
}

TEST(Daemon, SetDaemonCancelAndStaleHandleBookkeeping) {
  Simulator simulator;
  const EventHandle handle = simulator.schedule(10, [] {});
  EXPECT_EQ(simulator.daemon_pending(), 0u);
  EXPECT_TRUE(simulator.set_daemon(handle));
  EXPECT_EQ(simulator.daemon_pending(), 1u);
  EXPECT_TRUE(simulator.set_daemon(handle, false));
  EXPECT_EQ(simulator.daemon_pending(), 0u);
  EXPECT_TRUE(simulator.set_daemon(handle));
  simulator.cancel(handle);
  EXPECT_EQ(simulator.daemon_pending(), 0u);
  EXPECT_FALSE(simulator.set_daemon(handle));  // stale handle
}

TEST(Daemon, FlagSurvivesPeriodicRearm) {
  Simulator simulator;
  int ticks = 0;
  PeriodicTimer timer(simulator, 10, [&] { ++ticks; });
  timer.set_daemon(true);
  timer.start();
  EXPECT_TRUE(timer.daemon());
  simulator.schedule(25, [] {});
  simulator.run();  // daemon ticks at 10, 20; work at 25
  EXPECT_EQ(ticks, 2);
  // The rearmed tick is still a daemon: a second run() with fresh work
  // stops at that work again instead of chasing the timer.
  EXPECT_EQ(simulator.daemon_pending(), 1u);
  simulator.schedule(20, [] {});  // 20 past now=25 -> fires at t=45
  simulator.run();
  EXPECT_EQ(ticks, 4);  // t=30, 40
  EXPECT_EQ(simulator.now(), 45);
}

}  // namespace
}  // namespace gdmp::sim
