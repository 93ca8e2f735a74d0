// Tests for the network simulator and TCP Reno+SACK implementation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/cross_traffic.h"
#include "net/tcp.h"
#include "net/topology.h"

namespace gdmp::net {
namespace {

struct WanFixture {
  sim::Simulator simulator;
  Network network{simulator};
  WanPath path;
  std::unique_ptr<TcpStack> stack_a;
  std::unique_ptr<TcpStack> stack_b;

  explicit WanFixture(WanConfig config = {}) {
    path = make_wan_path(network, "a", "b", config);
    stack_a = std::make_unique<TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<TcpStack>(simulator, *path.host_b);
  }
};

TEST(Link, DropsWhenQueueFull) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 1 * kMbps;
  config.queue_capacity = 3000;
  int delivered = 0;
  InFlightPool pool;
  Link link(simulator, pool, config, [&](const Packet&) { ++delivered; });
  Packet packet;
  packet.payload_len = 1000;
  for (int i = 0; i < 5; ++i) link.enqueue(packet);
  simulator.run();
  EXPECT_EQ(delivered, 2);  // 2×1040 fit in 3000; the rest dropped
  EXPECT_EQ(link.stats().packets_dropped, 3);
}

TEST(Link, SerializationPlusPropagationDelay) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte per microsecond
  config.propagation = 10 * kMillisecond;
  SimTime arrival = -1;
  InFlightPool pool;
  Link link(simulator, pool, config,
            [&](const Packet&) { arrival = simulator.now(); });
  Packet packet;
  packet.payload_len = 960;  // wire = 1000 B -> 1 ms serialization
  link.enqueue(packet);
  simulator.run();
  EXPECT_EQ(arrival, 11 * kMillisecond);
}

TEST(Link, UtilizationSampleOnEmptyWindowRepeatsLastValue) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte per microsecond
  InFlightPool pool;
  Link link(simulator, pool, config, [](const Packet&) {});
  Packet packet;
  packet.payload_len = 960;  // wire = 1000 B -> 1 ms busy
  link.enqueue(packet);
  simulator.run_until(2 * kMillisecond);
  const double utilization = link.sample_utilization();
  EXPECT_NEAR(utilization, 0.5, 0.01);  // 1 ms busy of a 2 ms window
  // Regression: sampling again with no sim time elapsed used to divide by
  // a zero-length window. It must repeat the last sample and leave the
  // window anchors alone.
  EXPECT_EQ(link.sample_utilization(), utilization);
  // The anchors did not move: the next real window still measures cleanly.
  link.enqueue(packet);
  simulator.run_until(4 * kMillisecond);
  EXPECT_NEAR(link.sample_utilization(), 0.5, 0.01);
}

TEST(Link, DeliveryCountersTrackArrivals) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;
  config.queue_capacity = 3000;
  InFlightPool pool;
  Link link(simulator, pool, config, [](const Packet&) {});
  Packet packet;
  packet.payload_len = 1000;  // wire = 1040 B
  for (int i = 0; i < 5; ++i) link.enqueue(packet);  // 2 fit, 3 drop
  simulator.run();
  EXPECT_EQ(link.stats().packets_delivered, 2);
  EXPECT_EQ(link.stats().bytes_delivered, 2 * 1040);
  EXPECT_EQ(link.stats().bytes_sent, link.stats().bytes_delivered);
  EXPECT_EQ(link.stats().packets_dropped, 3);
}

// Equal-time ties between a packet's serialization end and a later enqueue:
// the serialization end frees its queue space at the point of the kernel's
// (time, seq) order where an event scheduled by the earlier enqueue would
// fire. Two 1000 B packets fill a 2000 B queue at t=0; the head finishes
// serialization at exactly t=1 ms, when a third packet arrives.
struct TieRig {
  sim::Simulator simulator;
  InFlightPool pool;
  Link link;
  Packet packet;

  static LinkConfig config() {
    LinkConfig config;
    config.bandwidth = 8 * kMbps;  // 1 byte per microsecond
    config.propagation = 10 * kMillisecond;
    config.queue_capacity = 2000;
    return config;
  }

  TieRig() : link(simulator, pool, config(), [](const Packet&) {}) {
    packet.payload_len = 960;  // wire = 1000 B -> 1 ms serialization
  }

  void fill() {
    ASSERT_TRUE(link.enqueue(packet));
    ASSERT_TRUE(link.enqueue(packet));
  }
};

TEST(Link, EnqueueAtReleaseInstantFromEarlierEventIsDropped) {
  // Scheduled before the head's enqueue, the arrival precedes the head's
  // serialization end in FIFO order: the queue is still full.
  TieRig rig;
  bool accepted = true;
  rig.simulator.schedule_at(1 * kMillisecond,
                            [&] { accepted = rig.link.enqueue(rig.packet); });
  rig.fill();
  rig.simulator.run();
  EXPECT_FALSE(accepted);
  EXPECT_EQ(rig.link.stats().packets_dropped, 1);
  EXPECT_EQ(rig.link.stats().packets_delivered, 2);
}

TEST(Link, EnqueueAtReleaseInstantFromLaterEventIsAccepted) {
  // Scheduled after the head's enqueue, the arrival follows its
  // serialization end: one packet of room has opened.
  TieRig rig;
  rig.fill();
  bool accepted = false;
  rig.simulator.schedule_at(1 * kMillisecond,
                            [&] { accepted = rig.link.enqueue(rig.packet); });
  rig.simulator.run();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(rig.link.stats().packets_dropped, 0);
  EXPECT_EQ(rig.link.stats().packets_delivered, 3);
}

TEST(Link, ReceiverMayReenterTheDeliveringLink) {
  // A delivery that enqueues on its own link must re-arm the link's single
  // delivery event from inside that event's callback.
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;
  config.propagation = 1 * kMillisecond;
  std::vector<SimTime> arrivals;
  Link* self = nullptr;
  InFlightPool pool;
  Link link(simulator, pool, config, [&](const Packet& p) {
    arrivals.push_back(simulator.now());
    if (arrivals.size() < 3) self->enqueue(p);
  });
  self = &link;
  Packet packet;
  packet.payload_len = 960;  // 1 ms serialization
  link.enqueue(packet);
  simulator.run();
  EXPECT_EQ(arrivals, (std::vector<SimTime>{2 * kMillisecond,
                                            4 * kMillisecond,
                                            6 * kMillisecond}));
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Network, RoutesAcrossMultipleHops) {
  sim::Simulator simulator;
  Network network(simulator);
  auto path = make_wan_path(network, "x", "y");
  bool received = false;
  path.host_b->set_protocol_handler(Protocol::kDatagram,
                                    [&](const Packet&) { received = true; });
  Packet packet;
  packet.src = path.host_a->id();
  packet.dst = path.host_b->id();
  packet.protocol = Protocol::kDatagram;
  packet.payload_len = 100;
  EXPECT_TRUE(path.host_a->send(packet));
  simulator.run();
  EXPECT_TRUE(received);
}

TEST(Network, FindByName) {
  sim::Simulator simulator;
  Network network(simulator);
  make_wan_path(network, "cern", "anl");
  ASSERT_NE(network.find("cern"), nullptr);
  ASSERT_NE(network.find("anl-gw"), nullptr);
  EXPECT_EQ(network.find("slac"), nullptr);
}

TEST(Tcp, HandshakeEstablishesBothSides) {
  WanFixture f;
  TcpConfig config;
  TcpConnection::Ptr accepted;
  ASSERT_TRUE(f.stack_b->listen(
      5000, config, [&](TcpConnection::Ptr c) { accepted = std::move(c); }));
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  bool established = false;
  client->on_established = [&](const Status& s) { established = s.is_ok(); };
  f.simulator.run_until(10 * kSecond);
  EXPECT_TRUE(established);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(accepted->established());
}

TEST(Tcp, ConnectToClosedPortFails) {
  WanFixture f;
  auto client = f.stack_a->connect(f.path.host_b->id(), 1234, TcpConfig{});
  Status result = Status::ok();
  bool called = false;
  client->on_established = [&](const Status& s) {
    called = true;
    result = s;
  };
  f.simulator.run_until(10 * kSecond);
  EXPECT_TRUE(called);
  EXPECT_EQ(result.code(), ErrorCode::kAborted);
}

TEST(Tcp, RealBytesArriveInOrderAndIntact) {
  WanFixture f;
  std::vector<std::uint8_t> received;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_data = [&](std::span<const std::uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
    };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  std::vector<std::uint8_t> sent(10000);
  std::iota(sent.begin(), sent.end(), 0);
  client->on_established = [&](const Status&) {
    client->send(sent);
  };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(received, sent);
}

TEST(Tcp, SyntheticBytesCountedExactly) {
  WanFixture f;
  Bytes received = 0;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_synthetic_data = [&](Bytes n) { received += n; };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send_synthetic(5 * kMiB);
  };
  f.simulator.run_until(120 * kSecond);
  EXPECT_EQ(received, 5 * kMiB);
}

TEST(Tcp, MixedRealAndSyntheticPreserveOrder) {
  WanFixture f;
  std::string log;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_data = [&](std::span<const std::uint8_t> d) {
      log += "r" + std::to_string(d.size());
    };
    c->on_synthetic_data = [&](Bytes n) { log += "s" + std::to_string(n); };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send({1, 2, 3});
    client->send_synthetic(1000);
    client->send({4, 5});
  };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(log, "r3s1000r2");
}

TEST(Tcp, ThroughputIsWindowLimitedWithSmallBuffers) {
  // 64 KB window / 125 ms RTT ≈ 4.2 Mbit/s — the paper's untuned baseline.
  WanFixture f;
  TcpConfig config;
  config.send_buffer = 64 * kKiB;
  config.recv_buffer = 64 * kKiB;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 5 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) {
    client->send_synthetic(total);
  };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(120 * kSecond);
  ASSERT_GT(finished, 0);
  const double mbps = throughput_mbps(total, finished);
  EXPECT_GT(mbps, 3.0);
  EXPECT_LT(mbps, 5.0);
}

TEST(Tcp, TunedBufferFillsMostOfThePipe) {
  WanFixture f;
  TcpConfig config;
  config.send_buffer = 1 * kMiB;
  config.recv_buffer = 1 * kMiB;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 20 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) { client->send_synthetic(total); };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(120 * kSecond);
  ASSERT_GT(finished, 0);
  EXPECT_GT(throughput_mbps(total, finished), 25.0);  // of 45 Mbit/s
}

TEST(Tcp, RecoversFromHeavyCongestionLoss) {
  // Two tuned flows overflow a BDP-sized bottleneck queue; both must still
  // finish and retransmissions must be recorded.
  WanConfig wan;
  wan.wan_queue = 704 * kKiB;  // 2 x 1 MiB windows cannot fit
  WanFixture f(wan);
  TcpConfig config;
  config.send_buffer = 1 * kMiB;
  config.recv_buffer = 1 * kMiB;
  std::vector<TcpConnection::Ptr> servers;
  (void)f.stack_b->listen(5000, config,
                    [&](TcpConnection::Ptr c) { servers.push_back(c); });
  int done = 0;
  std::vector<TcpConnection::Ptr> clients;
  for (int i = 0; i < 2; ++i) {
    auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
    auto* client_raw = client.get();  // `clients` owns it; avoid a self-cycle
    client->on_established = [client_raw](const Status&) {
      client_raw->send_synthetic(10 * kMiB);
    };
    client->on_send_drained = [&done] { ++done; };
    clients.push_back(client);
  }
  f.simulator.run_until(300 * kSecond);
  EXPECT_EQ(done, 2);
  const auto total_retx = clients[0]->stats().retransmits +
                          clients[1]->stats().retransmits +
                          clients[0]->stats().timeouts +
                          clients[1]->stats().timeouts;
  EXPECT_GT(total_retx, 0);
  EXPECT_GT(f.path.bottleneck_ab->stats().packets_dropped, 0);
}

TEST(Tcp, GracefulCloseCompletesBothSides) {
  WanFixture f;
  TcpConnection::Ptr server;
  bool server_closed = false, client_closed = false;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_closed = [&](const Status& s) { server_closed = s.is_ok(); };
    auto* raw = c.get();  // `server` owns it; avoid a self-cycle
    c->on_synthetic_data = [raw](Bytes) { raw->close(); };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send_synthetic(1000);
    client->close();
  };
  client->on_closed = [&](const Status& s) { client_closed = s.is_ok(); };
  f.simulator.run_until(60 * kSecond);
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(f.stack_a->connection_count(), 0u);
  EXPECT_EQ(f.stack_b->connection_count(), 0u);
}

TEST(Tcp, AbortResetsPeer) {
  WanFixture f;
  TcpConnection::Ptr server;
  Status server_status = Status::ok();
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_closed = [&](const Status& s) { server_status = s; };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) { client->abort(); };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(server_status.code(), ErrorCode::kAborted);
}

// Parameterized sweep: throughput must scale roughly with buffer size while
// window-limited (property derived from throughput = window / RTT).
class TcpBufferSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(TcpBufferSweep, ThroughputTracksWindowOverRtt) {
  WanFixture f;
  TcpConfig config;
  config.send_buffer = GetParam();
  config.recv_buffer = GetParam();
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 8 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) { client->send_synthetic(total); };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(600 * kSecond);
  ASSERT_GT(finished, 0);
  const double expected =
      static_cast<double>(GetParam()) * 8.0 / 0.125 / 1e6;  // window/RTT
  const double measured = throughput_mbps(total, finished);
  EXPECT_GT(measured, expected * 0.6);
  EXPECT_LT(measured, expected * 1.3);
}

INSTANTIATE_TEST_SUITE_P(WindowLimited, TcpBufferSweep,
                         ::testing::Values(32 * kKiB, 64 * kKiB, 128 * kKiB,
                                           256 * kKiB));

TEST(CrossTraffic, CbrOffersConfiguredRate) {
  sim::Simulator simulator;
  Network network(simulator);
  auto path = make_wan_path(network, "a", "b");
  DatagramSink sink(*path.host_b);
  CbrConfig config;
  config.rate = 10 * kMbps;
  CbrSource source(network, *path.host_a, *path.host_b, config, 5);
  source.start();
  simulator.run_until(10 * kSecond);
  source.stop();
  const double offered_mbps =
      static_cast<double>(source.bytes_offered()) * 8.0 / 10.0 / 1e6;
  EXPECT_NEAR(offered_mbps, 10.0, 0.7);
  EXPECT_GT(sink.bytes_received(), 0);
}

// ------------------------------------------------- packet-model golden runs
//
// Exact outcomes of two fixed packet runs, pinned so that any change to the
// packet model's event order — not only run-to-run nondeterminism — shows
// up as a diff. Both runs lean on equal-time ties between arrivals and
// serialization ends. Update the constants only with a change that is meant
// to alter packet-level behaviour, and say why.

struct GoldenOutcome {
  SimTime completion = -1;  // when the last sender drained, ns
  std::int64_t retransmits = 0;
  std::int64_t bottleneck_dropped = 0;
  Bytes bottleneck_delivered = 0;
};

/// Sends `bytes` on each of `streams` connections from `from` to port 5000
/// of `to` and runs until every sender drains (or `horizon`).
GoldenOutcome run_golden_streams(sim::Simulator& simulator, TcpStack& from,
                                 TcpStack& to, NodeId to_id, int streams,
                                 Bytes bytes, const TcpConfig& config,
                                 const Link& bottleneck, SimTime horizon,
                                 CbrSource* cross = nullptr) {
  std::vector<TcpConnection::Ptr> servers;
  (void)to.listen(5000, config,
                  [&](TcpConnection::Ptr c) { servers.push_back(c); });
  GoldenOutcome outcome;
  int drained = 0;
  std::vector<bool> stream_drained(streams, false);
  std::vector<TcpConnection::Ptr> clients;
  for (int i = 0; i < streams; ++i) {
    auto client = from.connect(to_id, 5000, config);
    auto* raw = client.get();  // `clients` owns it; avoid a self-cycle
    client->on_established = [raw, bytes](const Status&) {
      raw->send_synthetic(bytes);
    };
    // Fires on every ack once drained; count each stream once.
    client->on_send_drained = [&, i] {
      if (stream_drained[i]) return;
      stream_drained[i] = true;
      if (++drained == streams) {
        outcome.completion = simulator.now();
        if (cross != nullptr) cross->stop();
      }
    };
    clients.push_back(client);
  }
  simulator.run_until(horizon);
  for (const auto& client : clients) {
    outcome.retransmits += client->stats().retransmits;
  }
  outcome.bottleneck_dropped = bottleneck.stats().packets_dropped;
  outcome.bottleneck_delivered = bottleneck.stats().bytes_delivered;
  return outcome;
}

TEST(PacketGolden, TunedParallelStreamsWithCrossTraffic) {
  // Four tuned streams and 18 Mbit/s of CBR cross traffic overflow the
  // default 2816 KiB bottleneck of the CERN–ANL path.
  WanFixture f;
  DatagramSink sink(*f.path.host_b);
  CbrConfig cbr;
  cbr.rate = 18 * kMbps;
  CbrSource cross(f.network, *f.path.host_a, *f.path.host_b, cbr, 13);
  cross.start();
  TcpConfig config;
  config.send_buffer = 2 * kMiB;
  config.recv_buffer = 2 * kMiB;
  const GoldenOutcome outcome = run_golden_streams(
      f.simulator, *f.stack_a, *f.stack_b, f.path.host_b->id(), 4, 8 * kMiB,
      config, *f.path.bottleneck_ab, 600 * kSecond, &cross);
  EXPECT_EQ(outcome.completion, 13'329'120'179);
  EXPECT_EQ(outcome.retransmits, 217);
  EXPECT_EQ(outcome.bottleneck_dropped, 1353);
  EXPECT_EQ(outcome.bottleneck_delivered, 69'797'054);
}

TEST(PacketGolden, EqualBandwidthChainArrivesOnReleaseInstants) {
  // h0 -> r1 -> r2 -> h3 at one bandwidth: a packet reaches r1 exactly when
  // its predecessor finishes serialization on r1 -> r2, whose queue holds
  // less than two full segments, so each such tie decides a drop.
  sim::Simulator simulator;
  Network network(simulator);
  Node& h0 = network.add_node("h0");
  Node& r1 = network.add_node("r1");
  Node& r2 = network.add_node("r2");
  Node& h3 = network.add_node("h3");
  LinkConfig link;
  link.bandwidth = 10 * kMbps;
  link.propagation = 2 * kMillisecond;
  link.queue_capacity = 64 * kKiB;
  LinkConfig tight = link;
  tight.queue_capacity = 2999;  // one 1500 B segment, not two
  network.connect(h0, r1, link);
  network.connect(r1, r2, tight, link);
  network.connect(r2, h3, link);
  network.compute_routes();
  TcpStack from(simulator, h0);
  TcpStack to(simulator, h3);
  TcpConfig config;
  config.send_buffer = 32 * kKiB;
  config.recv_buffer = 32 * kKiB;
  const GoldenOutcome outcome = run_golden_streams(
      simulator, from, to, h3.id(), 1, 1 * kMiB, config,
      *network.link_between(r1, r2), 600 * kSecond);
  EXPECT_EQ(outcome.completion, 47'463'548'800);
  EXPECT_EQ(outcome.retransmits, 205);
  EXPECT_EQ(outcome.bottleneck_dropped, 206);
  EXPECT_EQ(outcome.bottleneck_delivered, 1'081'496);
}

}  // namespace
}  // namespace gdmp::net
