// Zero-allocation regression tests for the simulation kernel (DESIGN.md §5e)
// and the other hot lookups it drives.
//
// The fast-path claim is that steady-state schedule/fire/cancel/reschedule
// performs no heap allocation as long as callbacks fit InlineFunction's
// 64-byte buffer. This binary pins that claim by replacing the global
// operator new with a counting version and asserting the count does not
// move across a measured region. It is a separate test binary because the
// replacement is program-wide and must not leak into the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "flow/flow_engine.h"
#include "net/cross_traffic.h"
#include "net/topology.h"
#include "objstore/federation.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // gdmp-lint: owned-new (global operator new replacement for the counting test)
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gdmp::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Production-sized capture: `this`-style pointer plus a guard and two ints —
// 32 bytes, comfortably inside the 64-byte inline buffer but beyond
// std::function's typical small-object optimisation.
struct Payload {
  std::uint64_t guard;
  std::uint64_t id;
  std::uint64_t bytes;
};

TEST(InlineFunctionAlloc, InlineCaptureAllocatesNothing) {
  std::uint64_t sink = 0;
  const Payload payload{1, 2, 3};
  const std::uint64_t before = allocation_count();
  InlineFunction<void(), 64> fn([&sink, payload] { sink += payload.id; });
  EXPECT_TRUE(fn.is_inline());
  fn();
  InlineFunction<void(), 64> moved = std::move(fn);
  moved();
  moved.reset();
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(sink, 4u);
}

TEST(InlineFunctionAlloc, OversizedCaptureFallsBackToOneHeapCell) {
  std::uint64_t sink = 0;
  struct Big {
    std::uint64_t words[12];  // 96 bytes: exceeds the 64-byte buffer
  };
  const Big big{{7}};
  const std::uint64_t before = allocation_count();
  InlineFunction<void(), 64> fn([&sink, big] { sink += big.words[0]; });
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(allocation_count(), before + 1);
  fn();
  // Moves of a spilled callable shuffle the pointer, never reallocate.
  InlineFunction<void(), 64> moved = std::move(fn);
  moved();
  EXPECT_EQ(allocation_count(), before + 1);
  EXPECT_EQ(sink, 14u);
}

// Self-perpetuating hold model: a fixed working set of pending events where
// every fire schedules one successor. After a warmup pass has grown the
// heap vector and slot table to their steady-state footprint, running
// thousands more events must allocate exactly nothing.
struct Hold {
  Simulator& sim;
  std::int64_t to_schedule;
  std::uint64_t sink = 0;
  std::uint32_t x = 0x2545f491u;

  void fire(const Payload& payload) {
    sink += payload.id;
    if (to_schedule <= 0) return;
    --to_schedule;
    x = x * 1664525u + 1013904223u;
    const Payload next{payload.guard, payload.id + 1, x};
    sim.schedule(static_cast<SimDuration>(x % 100 + 1),
                 [this, next] { fire(next); });
  }
};

TEST(SimulatorAlloc, SteadyStateScheduleFireAllocatesNothing) {
  Simulator sim;
  constexpr int kWorkingSet = 64;
  Hold hold{sim, /*to_schedule=*/20'000};
  for (int i = 0; i < kWorkingSet; ++i) {
    hold.fire(Payload{0xabc, static_cast<std::uint64_t>(i), 0});
  }
  // Warmup: fire a quarter of the budget so every container reaches its
  // steady-state capacity (heap vector, slot table, free list).
  while (sim.events_fired() < 5'000 && sim.step()) {
  }
  const std::uint64_t before = allocation_count();
  sim.run();
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(sim.events_fired(), 20'000u);
  EXPECT_GT(hold.sink, 0u);
}

TEST(SimulatorAlloc, SteadyStateCancelScheduleChurnAllocatesNothing) {
  Simulator sim;
  constexpr int kTimers = 64;
  std::uint64_t sink = 0;
  std::uint32_t x = 0x9e3779b9u;
  std::vector<EventHandle> handles(kTimers);
  const auto make_timer = [&](int i) {
    const Payload p{0xfeed, static_cast<std::uint64_t>(i), x};
    return sim.schedule(static_cast<SimDuration>(200 + x % 100),
                        [&sink, p] { sink += p.id; });
  };
  const auto churn = [&](int operations) {
    for (int op = 0; op < operations; ++op) {
      x = x * 1664525u + 1013904223u;
      const int i = static_cast<int>(x % kTimers);
      sim.cancel(handles[i]);
      handles[i] = make_timer(i);
      if ((op & 31) == 0) sim.run_until(sim.now() + 1);
    }
  };
  for (int i = 0; i < kTimers; ++i) handles[i] = make_timer(i);
  churn(1'000);  // warmup: grows the slot table / free list
  const std::uint64_t before = allocation_count();
  churn(10'000);
  EXPECT_EQ(allocation_count(), before);
}

TEST(SimulatorAlloc, RescheduleAndPeriodicTimerAllocateNothing) {
  Simulator sim;
  std::uint64_t ticks = 0;
  PeriodicTimer timer(sim, /*period=*/10, [&ticks] { ++ticks; });
  timer.start();
  std::uint64_t sink = 0;
  const Payload p{0xbeef, 1, 2};
  const EventHandle rto = sim.schedule(500, [&sink, p] { sink += p.id; });
  sim.run_until(100);  // warmup: timer armed, slot table grown
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(sim.reschedule(rto, 500));  // RTO re-arm: never fires
    sim.run_until(sim.now() + 10);          // periodic tick re-arms inline
  }
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(ticks, 1'000u);
  EXPECT_EQ(sink, 0u);
}

// Packet-path contract (net/link.h, DESIGN.md §5e): once the network's
// in-flight pool has reached its high-water mark, a packet-hop (enqueue,
// the lazy release of serialized packets, the delivery event's re-arm and
// the hand-off to the next node) allocates nothing. Two grid sites send
// CBR cross traffic to each other through the core, the background load
// of the packet campaign.
TEST(LinkAlloc, SteadyStatePacketHopsAllocateNothing) {
  Simulator sim;
  net::Network network{sim};
  const net::GridTopology grid =
      net::make_grid_topology(network, {{"cern", {}}, {"anl", {}}});
  const net::DatagramSink sink_cern(*grid.hosts[0]);
  const net::DatagramSink sink_anl(*grid.hosts[1]);
  net::CbrConfig cbr;
  cbr.rate = 20 * kMbps;
  net::CbrSource to_anl(network, *grid.hosts[0], *grid.hosts[1], cbr, 1);
  net::CbrSource to_cern(network, *grid.hosts[1], *grid.hosts[0], cbr, 2);
  std::vector<const net::Link*> links;
  for (std::size_t s = 0; s < 2; ++s) {
    net::Node* path[] = {grid.hosts[s], grid.gateways[s], grid.core};
    for (std::size_t i = 0; i + 1 < 3; ++i) {
      links.push_back(network.link_between(*path[i], *path[i + 1]));
      links.push_back(network.link_between(*path[i + 1], *path[i]));
    }
  }
  const auto hops = [&links] {
    std::int64_t delivered = 0;
    for (const net::Link* link : links) {
      delivered += link->stats().packets_delivered;
    }
    return delivered;
  };
  to_anl.start();
  to_cern.start();
  sim.run_until(1 * kSecond);  // warmup: the in-flight pool at high water
  const std::int64_t hops_before = hops();
  const std::uint64_t before = allocation_count();
  sim.run_until(2 * kSecond);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(hops() - hops_before, 10'000);
  EXPECT_GT(sink_anl.bytes_received(), 0);
  EXPECT_GT(sink_cern.bytes_received(), 0);
}

// FlowEngine contract (flow/flow_engine.h): "steady state allocates
// nothing" — flow slots, rate classes with their heaps and pending lists,
// the free list and all solver scratch are pooled. Exercised here with a
// fixed working set of unbounded flows over two paths churned through
// cancel/start plus forced link renegotiations, the exact shape of grid
// cross-traffic turnover, and a one-flow class that drains (emptying its
// class and firing the class completion handler) and is restarted into it.
TEST(FlowEngineAlloc, RenegotiationChurnAllocatesNothing) {
  Simulator sim;
  net::Network network{sim};
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::Node& c = network.add_node("c");
  net::LinkConfig link_config;
  link_config.bandwidth = 100 * kMbps;
  link_config.propagation = 5 * kMillisecond;
  network.connect(a, b, link_config);
  network.connect(a, c, link_config);
  network.compute_routes();
  net::Link* ab = network.link_between(a, b);
  ASSERT_NE(ab, nullptr);

  flow::FluidConfig config;
  config.model_slow_start = false;
  flow::FlowEngine engine(sim, network, config);

  constexpr int kFlows = 8;
  flow::FlowId ids[kFlows];
  std::uint64_t retired = 0;
  const auto launch = [&](int i) {
    flow::FlowSpec spec;
    spec.src = a.id();
    spec.dst = (i % 2 == 0 ? b : c).id();  // two paths, one class each
    spec.bytes = flow::kUnboundedBytes;
    return engine.start(spec,
                        [&retired](const flow::FlowDone&) { ++retired; });
  };
  flow::FlowId finite{};
  std::uint64_t drained = 0;
  const auto refill = [&]() {
    if (engine.active(finite)) return;
    flow::FlowSpec spec;
    spec.src = a.id();
    spec.dst = c.id();
    spec.weight = 2.0;  // its own class on the a→c path
    spec.bytes = 64 * 1024;
    finite = engine.start(spec, [&drained](const flow::FlowDone& done) {
      if (done.ok) ++drained;
    });
  };
  std::uint32_t x = 1;
  const auto churn = [&](int operations) {
    for (int op = 0; op < operations; ++op) {
      x = x * 1664525u + 1013904223u;
      const int i = static_cast<int>(x % kFlows);
      engine.cancel(ids[i]);
      ids[i] = launch(i);
      refill();
      if ((op & 7) == 0) engine.on_link_changed(ab);
      sim.run_until(sim.now() + kMillisecond);
    }
  };
  for (int i = 0; i < kFlows; ++i) ids[i] = launch(i);
  churn(200);  // warmup: slot pool, classes, free list and scratch grow
  const std::uint64_t before = allocation_count();
  const std::uint64_t drained_before = drained;
  churn(1'000);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(retired, 1'000u);
  EXPECT_GE(drained - drained_before, 10u);
  for (int i = 0; i < kFlows; ++i) EXPECT_TRUE(engine.active(ids[i]));
}

// HeartbeatReporter contract (obs/heartbeat.h): once the stream shape
// settles, a tick — sampler pull, windowed series update, watchdog sweep
// and rollup render into the reused line buffer — performs no allocation.
TEST(HeartbeatAlloc, SteadyStateTickAndRenderAllocateNothing) {
  Simulator sim;
  // Sink state outlives the reporter: its destructor still emits the
  // campaign record through the sink.
  std::uint64_t lines = 0;
  std::string last_line;
  last_line.reserve(4096);  // the sink itself must not allocate either

  obs::HeartbeatConfig config;
  config.rollup_path.clear();  // sink only; no file stream
  obs::HeartbeatReporter reporter(sim, config);

  obs::MetricsRegistry registry;
  obs::Counter& bytes = registry.counter("site.cern.bytes_in");
  obs::Counter& requests = registry.counter("gridftp.requests");
  obs::Gauge& depth = registry.gauge("sched.queue_depth");
  reporter.add_registry(&registry);

  reporter.set_sink([&lines, &last_line](const std::string& line) {
    ++lines;
    last_line.assign(line);  // capacity reuse after the reserve above
  });

  const auto advance = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      bytes.add(1'000'000);
      requests.add(3);
      depth.set(static_cast<double>(i % 17));
      reporter.tick();
    }
  };
  advance(20);  // warmup: plan build, window rings, line buffer capacity
  const std::uint64_t before = allocation_count();
  advance(200);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(lines, 220u);
  EXPECT_NE(last_line.find("\"type\":\"rollup\""), std::string::npos);
}

// Object location index contract (objstore/object_file_catalog.h, DESIGN.md
// §5k): on a warm catalog holding range and packed files, the "held
// locally" query and contains() allocate nothing, hit or miss, with or
// without a collective lookup's cursor, and the collective missing()
// allocates only its result.
TEST(ObjectCatalogAlloc, HasLocalAndContainsAllocateNothing) {
  using namespace objstore;
  Simulator sim;
  storage::Disk disk{sim, storage::DiskConfig{}};
  storage::DiskPool pool{100 * kGiB, disk};
  Federation federation{"alloc-fd", EventModel::standard(100'000), pool};
  for (int f = 0; f < 4; ++f) {
    const std::string name = "/store/aod-" + std::to_string(f);
    ASSERT_TRUE(pool.add_file(name, 1000 * 10 * kKiB, 1, 0).is_ok());
    ASSERT_TRUE(federation
                    .attach_range_file(name, Tier::kAod, f * 1000,
                                       (f + 1) * 1000)
                    .is_ok());
  }
  for (int f = 0; f < 8; ++f) {
    const std::string name = "/store/packed-" + std::to_string(f);
    std::vector<ObjectId> objects;
    for (int i = 0; i < 64; ++i) {
      objects.push_back(make_object_id(Tier::kAod, 10'000 + f * 97 + i * 13));
    }
    ASSERT_TRUE(pool.add_file(name, 64 * 10 * kKiB, 2, 0).is_ok());
    ASSERT_TRUE(federation.attach_packed_file(name, objects).is_ok());
  }
  // One attached packed file whose pool copy is gone: a has_local miss
  // that still walks a posting.
  ASSERT_TRUE(pool.add_file("/store/evicted", 10 * kKiB, 3, 0).is_ok());
  ASSERT_TRUE(federation
                  .attach_packed_file("/store/evicted",
                                      {make_object_id(Tier::kAod, 50'000)})
                  .is_ok());
  ASSERT_TRUE(pool.remove("/store/evicted").is_ok());

  const ObjectFileCatalog& catalog = federation.catalog();
  const ObjectId range_hit = make_object_id(Tier::kAod, 1500);
  const ObjectId packed_hit = make_object_id(Tier::kAod, 10'000 + 97 + 13);
  const ObjectId evicted = make_object_id(Tier::kAod, 50'000);
  const ObjectId miss = make_object_id(Tier::kEsd, 1500);
  const std::uint64_t before = allocation_count();
  int local = 0;
  int held = 0;
  int walked = 0;
  for (int i = 0; i < 1'000; ++i) {
    ObjectFileCatalog::Cursor cursor;  // one collective lookup's walk
    for (const ObjectId id : {range_hit, packed_hit, evicted, miss}) {
      local += federation.has_local(id) ? 1 : 0;
      held += catalog.contains(id) ? 1 : 0;
      walked += catalog.contains(id, cursor) ? 1 : 0;
    }
  }
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(local, 2'000);
  EXPECT_EQ(held, 3'000);
  EXPECT_EQ(walked, 3'000);

  // missing(): one allocation per call, for its result, whether it finds
  // absent ids or none.
  const std::vector<ObjectId> request = {range_hit, evicted, packed_hit, miss};
  const std::vector<ObjectId> all_held = {range_hit, packed_hit, range_hit};
  for (const auto* ids : {&request, &all_held}) {
    const std::uint64_t start = allocation_count();
    const std::vector<ObjectId> absent = federation.missing(*ids);
    EXPECT_LE(allocation_count() - start, 1u);
    EXPECT_EQ(absent.size(), ids == &request ? 2u : 0u);
  }
}

// The pool reports an LRU eviction to the federation's residency observer;
// has_local() answers from the updated bit and still allocates nothing.
TEST(ObjectCatalogAlloc, HasLocalAllocatesNothingAfterEviction) {
  using namespace objstore;
  Simulator sim;
  storage::Disk disk{sim, storage::DiskConfig{}};
  storage::DiskPool pool{2 * 10 * kKiB, disk};
  Federation federation{"alloc-evict-fd", EventModel::standard(1'000), pool};
  const ObjectId first = make_object_id(Tier::kAod, 1);
  const ObjectId second = make_object_id(Tier::kAod, 2);
  ASSERT_TRUE(pool.add_file("/a", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(federation.attach_packed_file("/a", {first}).is_ok());
  ASSERT_TRUE(pool.add_file("/b", 10 * kKiB, 2, 0).is_ok());
  ASSERT_TRUE(federation.attach_packed_file("/b", {second}).is_ok());
  ASSERT_TRUE(pool.add_file("/c", 10 * kKiB, 3, 0).is_ok());  // evicts /a
  ASSERT_EQ(pool.stats().evictions, 1);
  const std::uint64_t before = allocation_count();
  int local = 0;
  for (int i = 0; i < 1'000; ++i) {
    local += federation.has_local(first) ? 1 : 0;
    local += federation.has_local(second) ? 1 : 0;
  }
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(local, 1'000);
}

// Synthetic-CRC memo contract (common/crc32.h, DESIGN.md §5l): a lookup
// allocates nothing, hit or miss, single range or multi-range.
TEST(CrcMemoAlloc, HitsAndMissesAllocateNothing) {
  Simulator sim;
  SyntheticCrcMemo& memo = sim.crc_memo();
  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      (void)memo.crc32_synthetic(seed, 0, 4 * kMiB);
      Crc32 crc;
      memo.update_synthetic(crc, seed, 0, kMiB);
      memo.update_synthetic(crc, seed, 2 * kMiB, kMiB + 1);
    }
  }
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(memo.misses(), 24u);
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_EQ(memo.hits() + memo.misses(), 96u);
}

}  // namespace
}  // namespace gdmp::sim
