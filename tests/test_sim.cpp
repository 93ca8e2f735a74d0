// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

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
