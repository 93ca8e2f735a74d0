// Tests for the fluid-flow transfer model (src/flow): the weighted max-min
// solver, the engine's incremental renegotiation, teardown discipline, and
// fluid GridFTP end to end — including the Figure 5/6 operating points
// where the fluid model must track the packet model within tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "counting_callback.h"
#include "flow/fair_share.h"
#include "flow/flow_engine.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/topology.h"
#include "obs/channel.h"
#include "storage/disk.h"
#include "storage/disk_pool.h"

namespace gdmp::flow {
namespace {

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;
constexpr double kEff = 1460.0 / 1500.0;

// ---------------------------------------------------------------- WaterFill

TEST(WaterFill, EqualSharesOnOneLink) {
  std::vector<ShareFlow> flows(4);
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership;
  for (auto& flow : flows) {
    flow.link_begin = static_cast<std::int32_t>(membership.size());
    flow.link_count = 1;
    membership.push_back(0);
  }
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  for (const auto& flow : flows) {
    EXPECT_NEAR(flow.rate, 25e6, 1.0);
    EXPECT_EQ(flow.bottleneck, 0);
  }
}

TEST(WaterFill, WeightsSplitProportionally) {
  std::vector<ShareFlow> flows(2);
  flows[0].weight = 1.0;
  flows[1].weight = 3.0;
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  flows[1].link_begin = 1;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 25e6, 1.0);
  EXPECT_NEAR(flows[1].rate, 75e6, 1.0);
}

TEST(WaterFill, CapBoundFlowFreesBandwidthForOthers) {
  std::vector<ShareFlow> flows(2);
  flows[0].cap = 10e6;
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  flows[1].link_begin = 1;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 10e6, 1.0);
  EXPECT_EQ(flows[0].bottleneck, -1);  // its own cap, not a link
  EXPECT_NEAR(flows[1].rate, 90e6, 1.0);
  EXPECT_EQ(flows[1].bottleneck, 0);
}

TEST(WaterFill, MultiLinkBottleneckIsTheNarrowLink) {
  // Flow 0 crosses the 10 Mbit/s link then the 100 Mbit/s link; flow 1
  // crosses only the wide link. Classic max-min: 10 / 90.
  std::vector<ShareFlow> flows(2);
  std::vector<ShareLink> links(2);
  links[0].capacity = 10e6;
  links[1].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 1, 1};
  flows[0].link_begin = 0;
  flows[0].link_count = 2;
  flows[1].link_begin = 2;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 10e6, 1.0);
  EXPECT_EQ(flows[0].bottleneck, 0);
  EXPECT_NEAR(flows[1].rate, 90e6, 1.0);
  EXPECT_EQ(flows[1].bottleneck, 1);
}

TEST(WaterFill, MinRateFloorsOverloadedLinks) {
  std::vector<ShareFlow> flows(1);
  std::vector<ShareLink> links(1);
  links[0].capacity = 0.0;  // fully pre-consumed by fixed load
  std::vector<std::int32_t> membership = {0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 1e3);
  EXPECT_EQ(flows[0].rate, 1e3);
}

// --------------------------------------------------------------- FlowEngine

/// Two hosts joined by one duplex link.
struct PairNet {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::Node* a = nullptr;
  net::Node* b = nullptr;
  net::Link* ab = nullptr;

  explicit PairNet(BitsPerSec bandwidth = 100 * kMbps,
                   SimDuration propagation = 5 * kMillisecond) {
    a = &network.add_node("a");
    b = &network.add_node("b");
    net::LinkConfig config;
    config.bandwidth = bandwidth;
    config.propagation = propagation;
    network.connect(*a, *b, config);
    network.compute_routes();
    ab = network.link_between(*a, *b);
  }
};

TEST(FlowEngine, SingleFlowDrainsAtPayloadRate) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  const Bytes bytes = 10 * kMiB;
  bool done = false;
  FlowDone result;
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = bytes;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = true;
    result = d;
  });
  ASSERT_TRUE(id.valid());
  net.simulator.run_until(60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.transferred, bytes);
  const double expected_sec = bytes * 8.0 / (100e6 * kEff);
  EXPECT_NEAR(to_seconds(result.finished - result.started), expected_sec,
              expected_sec * 0.01);
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_completed, 1);
}

TEST(FlowEngine, SecondFlowHalvesTheFirstMidFlight) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  const FlowId first = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(first), 100e6 * kEff, 1e3);

  const FlowId second = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(2 * kSecond);
  EXPECT_NEAR(engine.rate(first), 50e6 * kEff, 1e3);
  EXPECT_NEAR(engine.rate(second), 50e6 * kEff, 1e3);
  EXPECT_NEAR(engine.link_utilization(net.ab), 1.0, 1e-6);
}

TEST(FlowEngine, WindowCapReproducesUntunedCeiling) {
  PairNet net(100 * kMbps, 62 * kMillisecond + 500 * kMicrosecond);
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  spec.window = 64 * kKiB;  // the Figure 5 untuned buffer
  const FlowId id = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  const double rtt_sec = 0.125;
  EXPECT_NEAR(engine.rate(id), 64.0 * kKiB * 8 / rtt_sec,
              engine.rate(id) * 0.01);
}

TEST(FlowEngine, PinnedFlowTakesFixedShare) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec cross;
  cross.src = net.a->id();
  cross.dst = net.b->id();
  cross.bytes = kUnboundedBytes;
  cross.pinned_rate = 60 * kMbps;
  const FlowId pinned = engine.start(cross, [](const FlowDone&) {});
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  const FlowId fair = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(pinned), 60e6 * kEff, 1e3);
  EXPECT_NEAR(engine.rate(fair), 40e6 * kEff, 1e3);
  EXPECT_TRUE(engine.active(pinned));  // unbounded: never completes
}

TEST(FlowEngine, CancelFiresNotOkWithPartialBytes) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 100 * kMiB;
  bool done = false;
  FlowDone result;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = true;
    result = d;
  });
  net.simulator.run_until(1 * kSecond);
  const Bytes seen = engine.transferred(id);
  EXPECT_GT(seen, 0);
  EXPECT_LT(seen, 100 * kMiB);
  ASSERT_TRUE(engine.cancel(id));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_NEAR(static_cast<double>(result.transferred),
              static_cast<double>(seen), 2.0);
  EXPECT_FALSE(engine.cancel(id));  // stale id: no-op
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_cancelled, 1);
}

TEST(FlowEngine, ChurnRenegotiatesOnlyTouchedLinks) {
  // Two disjoint host pairs; churn on one pair must not recompute the
  // other pair's link or flows.
  sim::Simulator simulator;
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::Node& c = network.add_node("c");
  net::Node& d = network.add_node("d");
  net::LinkConfig config;
  config.bandwidth = 100 * kMbps;
  config.propagation = 5 * kMillisecond;
  network.connect(a, b, config);
  network.connect(c, d, config);
  network.compute_routes();

  FlowEngine engine(simulator, network);
  FlowSpec ab;
  ab.src = a.id();
  ab.dst = b.id();
  ab.bytes = 10 * kGiB;
  FlowSpec cd = ab;
  cd.src = c.id();
  cd.dst = d.id();
  (void)engine.start(ab, [](const FlowDone&) {});
  (void)engine.start(cd, [](const FlowDone&) {});
  simulator.run_until(1 * kSecond);

  const std::int64_t links_before = engine.stats().links_recomputed;
  const std::int64_t flows_before = engine.stats().flows_recomputed;
  const std::int64_t classes_before = engine.stats().classes_recomputed;
  (void)engine.start(ab, [](const FlowDone&) {});
  simulator.run_until(2 * kSecond);
  // Exactly the a→b link; its two resident flows — the c→d pair untouched.
  EXPECT_EQ(engine.stats().links_recomputed - links_before, 1);
  EXPECT_EQ(engine.stats().flows_recomputed - flows_before, 2);
  // Both a→b flows share route, weight and window: one rate class.
  EXPECT_EQ(engine.stats().classes_recomputed - classes_before, 1);

  // N more flows on the same path still re-rate as that one class.
  constexpr int kMore = 6;
  const std::int64_t flows_mid = engine.stats().flows_recomputed;
  const std::int64_t classes_mid = engine.stats().classes_recomputed;
  const std::int64_t reneg_mid = engine.stats().renegotiations;
  for (int i = 0; i < kMore; ++i) {
    (void)engine.start(ab, [](const FlowDone&) {});
  }
  simulator.run_until(3 * kSecond);
  EXPECT_EQ(engine.stats().renegotiations - reneg_mid, 1);
  EXPECT_EQ(engine.stats().classes_recomputed - classes_mid, 1);
  EXPECT_EQ(engine.stats().flows_recomputed - flows_mid, 2 + kMore);
}

TEST(FlowEngine, CancellingClassHeadMovesNextCompletion) {
  // Two flows of one class; the renegotiation quantum keeps the cancel's
  // re-rating far off, so the survivor finishes at its old rate — and the
  // class's one completion event must move from the cancelled head's
  // finish to the survivor's without a wasted wake-up in between.
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  config.reneg_quantum = 5 * kSecond;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 10 * kMiB;
  const FlowId head = engine.start(spec, [](const FlowDone&) {});
  spec.bytes = 20 * kMiB;
  FlowDone survivor{};
  const FlowId next =
      engine.start(spec, [&survivor](const FlowDone& d) { survivor = d; });
  net.simulator.run_until(6 * kSecond);  // rated at t = 5 s, both running
  const double rate = engine.rate(next);
  EXPECT_NEAR(rate, 50e6 * kEff, 1e3);
  EXPECT_EQ(engine.rate(head), rate);

  ASSERT_TRUE(engine.cancel(head));  // due at ~6.72 s; next at ~8.45 s
  const std::uint64_t events_before = net.simulator.events_fired();
  net.simulator.run_until(10 * kSecond);  // next renegotiation: t = 11 s
  EXPECT_TRUE(survivor.ok);
  const double expected_finish =
      5.0 + static_cast<double>(20 * kMiB) * 8.0 / rate;
  EXPECT_NEAR(to_seconds(survivor.finished), expected_finish, 1e-6);
  EXPECT_EQ(net.simulator.events_fired() - events_before, 1u);
}

TEST(FlowEngine, SameInstantCompletionReentrancyCompletesEachOnce) {
  // Three equal flows of one class finish at the same instant. The first
  // completion callback starts a flow in the same class and cancels a
  // sibling that is due at that very instant; every flow must still
  // complete exactly once, and the cancelled sibling reports not-ok.
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 4 * kMiB;

  using DoneFn = std::function<void(const FlowDone&)>;
  testing::CountingCallback counted[4];
  FlowDone results[4];
  FlowId ids[4];
  bool reentered = false;
  for (int i = 0; i < 3; ++i) {
    const DoneFn first_reentry = [&, i](const FlowDone& d) {
      results[i] = d;
      if (reentered) return;
      reentered = true;
      const DoneFn late = [&results](const FlowDone& r) { results[3] = r; };
      ids[3] = engine.start(spec, counted[3].wrap<const FlowDone&>(late));
      for (int j = 0; j < 3; ++j) {
        if (engine.active(ids[j])) {
          EXPECT_TRUE(engine.cancel(ids[j]));
          break;
        }
      }
    };
    ids[i] =
        engine.start(spec, counted[i].wrap<const FlowDone&>(first_reentry));
  }
  net.simulator.run_until(60 * kSecond);
  ASSERT_TRUE(reentered);
  int not_ok = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(counted[i].exactly_once()) << "flow " << i;
    if (!results[i].ok) ++not_ok;
  }
  EXPECT_EQ(not_ok, 1);  // the cancelled sibling
  EXPECT_TRUE(results[3].ok);
  EXPECT_GT(results[3].finished, results[0].finished);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].finished, results[0].finished) << "flow " << i;
  }
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_completed, 3);
  EXPECT_EQ(engine.stats().flows_cancelled, 1);
}

TEST(FlowEngine, LinkCapacityChangeRenegotiatesMidFlight) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  bool done = false;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = d.ok;
  });
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(id), 100e6 * kEff, 1e3);

  net.ab->set_bandwidth(20 * kMbps);
  engine.on_link_changed(net.ab);
  net.simulator.run_until(2 * kSecond);
  EXPECT_NEAR(engine.rate(id), 20e6 * kEff, 1e3);

  net.simulator.run_until(30 * 60 * kSecond);
  EXPECT_TRUE(done);  // the completion event moved with the rate
}

TEST(FlowEngine, UnroutedFlowReturnsInvalidId) {
  sim::Simulator simulator;
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  network.compute_routes();  // no link between them
  FlowEngine engine(simulator, network);
  FlowSpec spec;
  spec.src = a.id();
  spec.dst = b.id();
  spec.bytes = kMiB;
  const FlowId id = engine.start(spec, [](const FlowDone&) {});
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(engine.active_flows(), 0u);
}

TEST(FlowEngine, TeardownMidFlightDropsWorkWithoutCallbacks) {
  PairNet net;
  auto engine = std::make_unique<FlowEngine>(net.simulator, net.network);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 100 * kMiB;
  bool fired = false;
  (void)engine->start(spec, [&](const FlowDone&) { fired = true; });
  (void)engine->start(spec, [&](const FlowDone&) { fired = true; });
  net.simulator.run_until(1 * kSecond);
  engine.reset();  // pending completion + renegotiation events outlive it
  net.simulator.run_until(60 * kSecond);
  EXPECT_FALSE(fired);  // teardown discipline: in-flight work is dropped
}

// ------------------------------------------------------ cross-commit golden

/// One run of the golden fluid scenario: hosts a and c reach b through
/// router r, so the a→b and c→b classes share the 50 Mbit/s r→b
/// bottleneck (slow start on, the default config).
struct GoldenRun {
  std::vector<FlowDone> done;  // completion order
  FlowEngineStats stats;
};

GoldenRun run_golden_scenario() {
  sim::Simulator simulator;
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::Node& c = network.add_node("c");
  net::Node& r = network.add_node("r");
  net::LinkConfig near;
  near.bandwidth = 100 * kMbps;
  near.propagation = 5 * kMillisecond;
  net::LinkConfig far = near;
  far.propagation = 40 * kMillisecond;
  net::LinkConfig neck;
  neck.bandwidth = 50 * kMbps;
  neck.propagation = 10 * kMillisecond;
  network.connect(a, r, near);
  network.connect(c, r, far);
  network.connect(r, b, neck);
  network.compute_routes();
  net::Link* rb = network.link_between(r, b);

  GoldenRun run;
  FlowEngine engine(simulator, network);
  const auto launch = [&](std::uint64_t tag, net::Node& src, Bytes bytes,
                          double weight = 1.0, Bytes window = 0) {
    FlowSpec spec;
    spec.src = src.id();
    spec.dst = b.id();
    spec.bytes = bytes;
    spec.weight = weight;
    spec.window = window;
    spec.tag = tag;
    return engine.start(
        spec, [&run](const FlowDone& done) { run.done.push_back(done); });
  };
  // a→b class: flows of different sizes and start times; tags 1 and 2 tie.
  (void)launch(1, a, 20 * kMiB);
  (void)launch(2, a, 20 * kMiB);
  (void)launch(3, a, 8 * kMiB);
  // c→b class: heavier weight, but its window caps it below its share.
  (void)launch(4, c, 12 * kMiB, 4.0, 96 * kKiB);
  (void)launch(5, c, 6 * kMiB, 4.0, 96 * kKiB);
  // Pinned, unbounded cross traffic on the bottleneck path.
  FlowSpec cross;
  cross.src = a.id();
  cross.dst = b.id();
  cross.bytes = kUnboundedBytes;
  cross.pinned_rate = 8 * kMbps;
  (void)engine.start(cross, [](const FlowDone&) {});

  FlowId doomed{};
  simulator.schedule(500 * kMillisecond,
                     [&] { doomed = launch(8, a, 30 * kMiB); });
  simulator.schedule(1500 * kMillisecond,
                     [&] { (void)launch(7, a, 4 * kMiB); });
  simulator.schedule(3 * kSecond, [&] { (void)engine.cancel(doomed); });
  simulator.schedule(4 * kSecond, [&] {
    rb->set_bandwidth(30 * kMbps);
    engine.on_link_changed(rb);
  });
  simulator.run_until(600 * kSecond);
  run.stats = engine.stats();
  return run;
}

TEST(FlowGolden, MatchesPerFlowEngineValues) {
  // Values captured from the per-flow engine (one rate and one completion
  // event per flow) that rate classes replaced. `determinism_check`
  // compares two runs of one binary, so only a pinned run catches drift
  // between versions. Finish instants may move by float rounding in the
  // class clock (a nanosecond or two); everything else must not move.
  struct Expected {
    std::uint64_t tag;
    bool ok;
    Bytes transferred;
    SimTime finished;
  };
  const Expected expected[] = {
      {1, true, 20 * kMiB, 24'753'666'543},
      {2, true, 20 * kMiB, 24'753'666'543},
      {3, true, 8 * kMiB, 14'267'532'584},
      {4, true, 12 * kMiB, 17'219'661'928},
      {5, true, 6 * kMiB, 9'835'571'801},
      {7, true, 4 * kMiB, 9'683'922'582},
      {8, false, 1'809'428, 3'000'000'000},
  };
  const GoldenRun run = run_golden_scenario();
  ASSERT_EQ(run.done.size(), std::size(expected));
  for (const Expected& want : expected) {
    const auto it = std::find_if(
        run.done.begin(), run.done.end(),
        [&want](const FlowDone& done) { return done.tag == want.tag; });
    ASSERT_NE(it, run.done.end()) << "tag " << want.tag;
    EXPECT_EQ(it->ok, want.ok) << "tag " << want.tag;
    EXPECT_EQ(it->transferred, want.transferred) << "tag " << want.tag;
    EXPECT_NEAR(static_cast<double>(it->finished),
                static_cast<double>(want.finished), 2.0)
        << "tag " << want.tag;
  }
  EXPECT_EQ(run.stats.renegotiations, 10);
  EXPECT_EQ(run.stats.flows_recomputed, 44);
  EXPECT_EQ(run.stats.links_recomputed, 29);
  EXPECT_EQ(run.stats.flows_started, 8);
  EXPECT_EQ(run.stats.flows_completed, 6);
  EXPECT_EQ(run.stats.flows_cancelled, 1);
}

// ------------------------------------------------------------ fluid GridFTP

struct FluidFtpFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a;
  std::unique_ptr<net::TcpStack> stack_b;
  std::unique_ptr<FlowEngine> engine;
  security::CertificateAuthority ca{"TestCA"};
  storage::DiskConfig disk_config{};
  std::unique_ptr<storage::Disk> disk_a, disk_b;
  std::unique_ptr<storage::DiskPool> pool_a, pool_b;
  std::unique_ptr<gridftp::FtpServer> server;
  std::unique_ptr<gridftp::FtpClient> client;

  explicit FluidFtpFixture(gridftp::FtpServerConfig server_config = {}) {
    path = net::make_wan_path(network, "src", "dst");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    engine = std::make_unique<FlowEngine>(simulator, network);
    disk_a = std::make_unique<storage::Disk>(simulator, disk_config);
    disk_b = std::make_unique<storage::Disk>(simulator, disk_config);
    pool_a = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_a);
    pool_b = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_b);
    server_config.flow_engine = engine.get();
    server = std::make_unique<gridftp::FtpServer>(
        *stack_a, *pool_a, ca, ca.issue("/CN=src", kYear), server_config);
    client = std::make_unique<gridftp::FtpClient>(
        *stack_b, ca, ca.issue("/CN=dst", kYear));
    EXPECT_TRUE(server->start().is_ok());
  }

  gridftp::TransferOptions fluid_options(int streams = 1) {
    gridftp::TransferOptions options;
    options.parallel_streams = streams;
    options.flow_engine = engine.get();
    return options;
  }
};

TEST(FluidFtp, GetDeliversContentAndIdentity) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  auto options = f.fluid_options(2);
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->content_seed, 0x1234u);
                  EXPECT_EQ(result->crc,
                            crc32_synthetic(0x1234, 0, 2 * kMiB));
                  EXPECT_EQ(result->streams, 2);
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto local = f.pool_b->peek("/pool/f");
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local->size, 2 * kMiB);
  EXPECT_EQ(local->content_seed, 0x1234u);
  EXPECT_EQ(f.engine->stats().flows_completed, 2);  // one per stripe
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, PartialGetMovesOnlyRange) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 10 * kMiB, 7, 0);
  auto options = f.fluid_options(1);
  options.range = gridftp::ByteRange{1 * kMiB, 2 * kMiB};
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/part", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->crc,
                            crc32_synthetic(7, 1 * kMiB, 2 * kMiB));
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.pool_b->peek("/pool/part")->size, 2 * kMiB);
}

TEST(FluidFtp, PutStoresFileRemotely) {
  FluidFtpFixture f;
  (void)f.pool_b->add_file("/local/f", 3 * kMiB, 0x77, 0);
  auto options = f.fluid_options(3);
  bool done = false;
  f.client->put(f.path.host_a->id(), gridftp::kControlPort, *f.pool_b,
                "/local/f", "/pool/stored", options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 3 * kMiB);
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto stored = f.pool_a->peek("/pool/stored");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored->size, 3 * kMiB);
  EXPECT_EQ(stored->content_seed, 0x77u);
}

TEST(FluidFtp, CorruptionDetectedAndRepairedByRestart) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 0.3;
  config.fault_seed = 11;
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 4 * kMiB, 0x5151, 0);
  auto options = f.fluid_options(4);
  options.expected_crc = crc32_synthetic(0x5151, 0, 4 * kMiB);
  options.max_attempts = 10;
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_GT(result->attempts, 1);
                  EXPECT_EQ(result->content_seed, 0x5151u);
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(f.server->stats().blocks_corrupted, 0);
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, PersistentCorruptionExhaustsAttempts) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 1.0;  // every stripe poisoned
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 3, 0);
  auto options = f.fluid_options(1);
  options.expected_crc = crc32_synthetic(3, 0, 1 * kMiB);
  options.max_attempts = 2;
  Status status = Status::ok();
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  status = result.status();
                });
  f.simulator.run_until(600 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kCorrupted);
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, EmitsPerfAndRestartMarkers) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 0.4;
  config.fault_seed = 5;
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 8 * kMiB, 0xabc, 0);

  obs::TransferChannel channel;
  int perf_markers = 0;
  int restarts = 0;
  bool summary_ok = false;
  std::uint32_t stripe_count = 0;
  obs::TransferChannel::Observer observer;
  observer.on_perf = [&](const obs::PerfMarker& marker) {
    ++perf_markers;
    stripe_count = std::max(stripe_count, marker.stripe_count);
  };
  observer.on_restart = [&](const obs::RestartMarker&) { ++restarts; };
  observer.on_complete = [&](const obs::TransferSummary& summary) {
    summary_ok = summary.ok;
  };
  channel.subscribe(std::move(observer));

  auto options = f.fluid_options(4);
  options.channel = &channel;
  options.expected_crc = crc32_synthetic(0xabc, 0, 8 * kMiB);
  options.max_attempts = 10;
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  // The same marker stream the packet path produces: per-stripe perf
  // markers from the monitor, restart markers from the repair attempts,
  // one terminal summary.
  EXPECT_GE(perf_markers, 4);
  EXPECT_EQ(stripe_count, 4u);
  EXPECT_GT(restarts, 0);
  EXPECT_TRUE(summary_ok);
}

// The client's marker stream, pinned bit for bit. The golden comes from
// the always-on monitor that preceded monitoring on demand (DESIGN.md
// §5m), so a subscriber still sees exactly that stream. Three attempts of
// a 4-stripe get: every 0.5 s tick reports each stripe's cumulative
// bytes, read live from the engine while its flow runs. The 2.5 s tick falls in
// the second attempt's FGET round trip and still shows the first
// attempt's stripe totals; in the third attempt two repair ranges go to
// stripes 0 and 1, and stripes 2 and 3 move nothing.
TEST(FluidFtp, PerfMarkerStreamIsPinned) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 0.4;
  config.fault_seed = 12;
  FluidFtpFixture f(config);
  const Bytes size = 3 * kMiB + 330000;
  (void)f.pool_a->add_file("/pool/f", size, 0x5eed, 0);
  struct Mark {
    SimTime time;
    std::uint32_t stripe;
    Bytes bytes;
    bool operator==(const Mark&) const = default;
  };
  std::vector<Mark> marks;
  int restarts = 0;
  obs::TransferChannel channel;
  obs::TransferChannel::Observer observer;
  observer.on_perf = [&](const obs::PerfMarker& marker) {
    EXPECT_EQ(marker.stripe_count, 4u);
    EXPECT_EQ(marker.path, "/pool/f");
    marks.push_back({marker.time, marker.stripe, marker.bytes});
  };
  observer.on_restart = [&](const obs::RestartMarker&) { ++restarts; };
  channel.subscribe(std::move(observer));
  auto options = f.fluid_options(4);
  options.channel = &channel;
  options.expected_crc = crc32_synthetic(0x5eed, 0, size);
  options.max_attempts = 10;
  Result<gridftp::TransferResult> result =
      make_error(ErrorCode::kInternal, "pending");
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> r) {
                  result = std::move(r);
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->attempts, 3);
  EXPECT_EQ(restarts, 2);

  const std::vector<Mark> golden = {
      {1000942468, 0, 98655},  {1000942468, 1, 98655},
      {1000942468, 2, 98655},  {1000942468, 3, 98655},
      {1500942468, 0, 360380}, {1500942468, 1, 360380},
      {1500942468, 2, 360380}, {1500942468, 3, 360380},
      {2000942468, 0, 622105}, {2000942468, 1, 622105},
      {2000942468, 2, 622105}, {2000942468, 3, 622105},
      {2500942468, 0, 868932}, {2500942468, 1, 868932},
      {2500942468, 2, 868932}, {2500942468, 3, 868932},
      {3000942468, 0, 47996},  {3000942468, 1, 47996},
      {3000942468, 2, 47996},  {3000942468, 3, 47996},
      {3500942468, 0, 0},      {3500942468, 1, 0},
      {3500942468, 2, 0},      {3500942468, 3, 0},
      {4000942468, 0, 125584}, {4000942468, 1, 125584},
      {4000942468, 2, 0},      {4000942468, 3, 0},
  };
  ASSERT_EQ(marks.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(marks[i], golden[i])
        << "marker " << i << ": got {" << marks[i].time << ", "
        << marks[i].stripe << ", " << marks[i].bytes << "}";
  }
}

TEST(FluidFtp, FallsBackToPacketWithoutEngine) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 9, 0);
  auto options = f.fluid_options(1);
  options.flow_engine = nullptr;  // no engine: the packet plane
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.engine->stats().flows_started, 0);
}

// Both data planes apply the same rules: PASV and FGET reject a stream
// count outside 1..max_parallel_streams (32 by default), and an empty file
// moves in both directions on the first attempt.
struct Plane {
  TransferModel model;
  friend void PrintTo(const Plane& plane, std::ostream* os) {
    *os << (plane.model == TransferModel::kFluid ? "fluid" : "packet");
  }
};

class FtpPlanes : public ::testing::TestWithParam<Plane> {};

TEST_P(FtpPlanes, SameStreamCountChecksAndEmptyTransfers) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 9, 0);
  (void)f.pool_a->add_file("/pool/empty", 0, 0x31, 0);
  (void)f.pool_b->add_file("/local/empty", 0, 0x77, 0);
  const auto options = [&](int streams) {
    gridftp::TransferOptions o = f.fluid_options(streams);
    if (GetParam().model == TransferModel::kPacket) o.flow_engine = nullptr;
    return o;
  };
  const net::NodeId server = f.path.host_a->id();

  std::vector<Status> bad_gets;
  for (const int streams : {0, 33}) {
    f.client->get(server, gridftp::kControlPort, "/pool/f",
                  "/pool/f" + std::to_string(streams), f.pool_b.get(),
                  options(streams),
                  [&](Result<gridftp::TransferResult> result) {
                    bad_gets.push_back(result.status());
                  });
  }
  Result<gridftp::TransferResult> empty_get =
      make_error(ErrorCode::kInternal, "pending");
  f.client->get(server, gridftp::kControlPort, "/pool/empty", "/pool/empty",
                f.pool_b.get(), options(2),
                [&](Result<gridftp::TransferResult> result) {
                  empty_get = std::move(result);
                });
  Result<gridftp::TransferResult> empty_put =
      make_error(ErrorCode::kInternal, "pending");
  f.client->put(server, gridftp::kControlPort, *f.pool_b, "/local/empty",
                "/pool/stored", options(2),
                [&](Result<gridftp::TransferResult> result) {
                  empty_put = std::move(result);
                });
  f.simulator.run_until(300 * kSecond);

  ASSERT_EQ(bad_gets.size(), 2u);
  for (const Status& status : bad_gets) {
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(status.message().find("bad stream count"), std::string::npos)
        << status.to_string();
  }
  ASSERT_TRUE(empty_get.is_ok()) << empty_get.status().to_string();
  EXPECT_EQ(empty_get->bytes, 0);
  EXPECT_EQ(empty_get->attempts, 1);
  EXPECT_EQ(empty_get->crc, f.pool_a->peek("/pool/empty")->crc());
  EXPECT_EQ(f.pool_b->peek("/pool/empty")->size, 0);

  ASSERT_TRUE(empty_put.is_ok()) << empty_put.status().to_string();
  EXPECT_EQ(empty_put->bytes, 0);
  EXPECT_EQ(empty_put->attempts, 1);
  auto stored = f.pool_a->peek("/pool/stored");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored->size, 0);
  EXPECT_EQ(stored->crc(), f.pool_b->peek("/local/empty")->crc());
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

// Monitoring on demand (DESIGN.md §5m): the client arms its 0.5 s monitor
// only for a channel with a perf subscriber. The same get, watched by an
// on_complete observer alone and then by an on_perf one, must end at the
// same instant with the same result; the unwatched run skips exactly one
// kernel event per monitor tick, and each tick emits one marker per stripe.
TEST_P(FtpPlanes, MonitorIdleWithoutPerfSubscriber) {
  struct Run {
    Result<gridftp::TransferResult> result =
        make_error(ErrorCode::kInternal, "pending");
    SimTime finished = 0;
    std::uint64_t events = 0;
    std::uint64_t markers = 0;
    std::uint32_t stripes = 0;
    int summaries = 0;
  };
  const auto run = [this](bool watch_perf) {
    Run out;
    obs::TransferChannel channel;
    FluidFtpFixture f;
    (void)f.pool_a->add_file("/pool/f", 4 * kMiB, 0x5eed, 0);
    obs::TransferChannel::Observer observer;
    observer.on_complete = [&](const obs::TransferSummary&) {
      ++out.summaries;
    };
    if (watch_perf) {
      observer.on_perf = [&](const obs::PerfMarker& marker) {
        ++out.markers;
        out.stripes = marker.stripe_count;
      };
    }
    channel.subscribe(std::move(observer));
    gridftp::TransferOptions options = f.fluid_options(4);
    if (GetParam().model == TransferModel::kPacket) {
      options.flow_engine = nullptr;
    }
    options.channel = &channel;
    f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                  "/pool/f", f.pool_b.get(), options,
                  [&](Result<gridftp::TransferResult> result) {
                    out.result = std::move(result);
                    out.finished = f.simulator.now();
                    out.events = f.simulator.events_fired();
                  });
    f.simulator.run_until(600 * kSecond);
    return out;
  };
  const Run quiet = run(false);
  const Run watched = run(true);

  ASSERT_TRUE(quiet.result.is_ok()) << quiet.result.status().to_string();
  ASSERT_TRUE(watched.result.is_ok()) << watched.result.status().to_string();
  EXPECT_EQ(quiet.result->bytes, watched.result->bytes);
  EXPECT_EQ(quiet.result->elapsed, watched.result->elapsed);
  EXPECT_EQ(quiet.result->crc, watched.result->crc);
  EXPECT_EQ(quiet.result->attempts, watched.result->attempts);
  EXPECT_EQ(quiet.finished, watched.finished);
  EXPECT_EQ(quiet.summaries, 1);
  EXPECT_EQ(watched.summaries, 1);

  ASSERT_EQ(watched.stripes, 4u);
  ASSERT_GT(watched.markers, 0u);
  ASSERT_EQ(watched.markers % watched.stripes, 0u);
  EXPECT_EQ(watched.events - quiet.events, watched.markers / watched.stripes);
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, FtpPlanes,
                         ::testing::Values(Plane{TransferModel::kPacket},
                                           Plane{TransferModel::kFluid}));

// ------------------------------------------------- Figure 5/6 equivalence

TEST(FluidEquivalence, Fig5UntunedOperatingPoints) {
  // Figure 5 operating points: 25 MB over the 45 Mbit/s, 125 ms shared
  // path with 64 KB buffers. The fluid model must land within 10% of the
  // packet model's rate.
  for (const int streams : {1, 5}) {
    bench::WanBenchConfig config;
    config.seed = static_cast<std::uint64_t>(25 * kMiB) ^ (streams * 977);
    const auto packet = bench::run_wan_get(config, 25 * kMiB, streams,
                                           64 * kKiB, TransferModel::kPacket);
    const auto fluid = bench::run_wan_get(config, 25 * kMiB, streams,
                                          64 * kKiB, TransferModel::kFluid);
    ASSERT_TRUE(packet.ok);
    ASSERT_TRUE(fluid.ok);
    EXPECT_NEAR(fluid.mbps, packet.mbps, 0.10 * packet.mbps)
        << "streams=" << streams;
    EXPECT_LT(fluid.events, packet.events / 10) << "streams=" << streams;
  }
}

TEST(FluidEquivalence, Fig6TunedOperatingPoints) {
  // Figure 6: the same path with 1 MB tuned buffers. At one stream both
  // models sit in the clean congestion-limited regime and must agree
  // within 10%. At three or more streams the packet model's identical,
  // simultaneously-started streams synchronize their losses on the deep
  // drop-tail buffer and dip well below the paper's measured plateau
  // (~23 Mbit/s with production cross traffic); the fluid model holds the
  // residual fair share, so there we pin it against the paper's number
  // instead (see DESIGN.md §5f and the DISABLED_ sweep below).
  bench::WanBenchConfig config;
  config.seed = static_cast<std::uint64_t>(25 * kMiB) ^ 1409;
  const auto packet = bench::run_wan_get(config, 25 * kMiB, 1, 1 * kMiB,
                                         TransferModel::kPacket);
  const auto fluid = bench::run_wan_get(config, 25 * kMiB, 1, 1 * kMiB,
                                        TransferModel::kFluid);
  ASSERT_TRUE(packet.ok);
  ASSERT_TRUE(fluid.ok);
  EXPECT_NEAR(fluid.mbps, packet.mbps, 0.10 * packet.mbps);
  EXPECT_LT(fluid.events, packet.events / 10);

  const auto plateau = bench::run_wan_get(config, 25 * kMiB, 5, 1 * kMiB,
                                          TransferModel::kFluid);
  ASSERT_TRUE(plateau.ok);
  EXPECT_NEAR(plateau.mbps, 23.0, 2.3);  // the paper's tuned peak ±10%
}

// Calibration aid, not a regression gate: prints the tuned packet-vs-fluid
// sweep (with and without cross traffic) that motivated the operating-point
// choices above. Run with --gtest_also_run_disabled_tests.
TEST(FluidEquivalence, DISABLED_TunedSweepDiagnostic) {
  for (const BitsPerSec cross : {BitsPerSec(0), 18 * kMbps}) {
    for (const int streams : {1, 2, 3, 5, 8, 10}) {
      bench::WanBenchConfig config;
      config.cross_traffic = cross;
      config.seed = static_cast<std::uint64_t>(streams * 1409 + 7);
      const auto packet = bench::run_wan_get(
          config, 25 * kMiB, streams, 1 * kMiB, TransferModel::kPacket);
      const auto fluid = bench::run_wan_get(
          config, 25 * kMiB, streams, 1 * kMiB, TransferModel::kFluid);
      std::printf("cross=%2.0f n=%2d packet=%6.2f fluid=%6.2f ratio=%.3f\n",
                  cross / 1e6, streams, packet.mbps, fluid.mbps,
                  packet.mbps > 0 ? fluid.mbps / packet.mbps : 0.0);
    }
  }
}

}  // namespace
}  // namespace gdmp::flow
