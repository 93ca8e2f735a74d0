// Destruction-mid-flight tests: every completion callback parked inside a
// subsystem must fire exactly once — on success, on error, on cancel, and
// when the owner is torn down with the work still pending. These pin the
// fail-all drains that gdmp_lint --obligations demands (and several bugs
// the pass found: dropped completions in FtpClient teardown, RpcClient's
// destructor never draining pending_, DataMover dropping its queue).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "counting_callback.h"
#include "flow/flow_engine.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/topology.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "storage/disk_pool.h"
#include "storage/mss.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp {
namespace {

using testing::CountingCallback;

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;

// ---------------------------------------------------------------- storage

struct StorageRig {
  sim::Simulator simulator;
  storage::Disk disk{simulator, {}};
  storage::DiskPool pool{100 * kGiB, disk};
  std::optional<storage::MassStorageSystem> mss;

  explicit StorageRig(storage::StagingPlugin plugin) {
    mss.emplace(simulator, storage::MssConfig{}, plugin);
  }

  storage::FileInfo file(const std::string& path, Bytes size) {
    return storage::FileInfo{path, size, 0x5eed, simulator.now(), false};
  }

  void archive_now(const std::string& path, Bytes size) {
    CountingCallback archived;
    mss->archive(file(path, size), archived.wrap<Status>());
    simulator.run_until(simulator.now() + 3600 * kSecond);
    ASSERT_TRUE(archived.exactly_once());
    ASSERT_TRUE(archived.last_status().is_ok());
  }
};

// A stage and an archive still inside the plug-in's request delay when
// the MSS dies: each fails once, and its armed timer never fires later.
void expect_parked_in_plugin_delay_fail_once(storage::StagingPlugin plugin) {
  StorageRig rig(plugin);
  rig.archive_now("/pool/a", 4 * kMiB);
  CountingCallback stage, archive;
  rig.mss->stage("/pool/a", rig.pool,
                 stage.wrap<Result<storage::FileInfo>>());
  rig.mss->archive(rig.file("/pool/b", 1 * kMiB), archive.wrap<Status>());
  // Both requests are waiting out the plug-in's request delay; the MSS
  // dies before it ends.
  rig.simulator.run_until(rig.simulator.now() + plugin.request_delay - 1);
  EXPECT_EQ(stage.count(), 0);
  EXPECT_EQ(archive.count(), 0);
  rig.mss.reset();
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_EQ(stage.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(archive.exactly_once());
  EXPECT_EQ(archive.last_code(), ErrorCode::kUnavailable);
  // The armed timers must have been silenced: nothing fires twice later.
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_TRUE(archive.exactly_once());
}

TEST(Teardown, MssFailsStageAndArchiveInHrmDelayOnce) {
  expect_parked_in_plugin_delay_fail_once(storage::kHrmPlugin);
}

TEST(Teardown, MssFailsStageAndArchiveInScriptDelayOnce) {
  expect_parked_in_plugin_delay_fail_once(storage::kScriptStagerPlugin);
}

TEST(Teardown, MssHrmPluginSuccessAndErrorPathsFireOnce) {
  StorageRig rig(storage::kHrmPlugin);
  rig.archive_now("/pool/a", 4 * kMiB);
  CountingCallback hit, miss;
  rig.mss->stage("/pool/a", rig.pool, hit.wrap<Result<storage::FileInfo>>());
  rig.mss->stage("/pool/never-archived", rig.pool,
                 miss.wrap<Result<storage::FileInfo>>());
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(hit.exactly_once());
  EXPECT_TRUE(hit.last_status().is_ok());
  EXPECT_TRUE(rig.pool.contains("/pool/a"));
  EXPECT_TRUE(miss.exactly_once());
  EXPECT_EQ(miss.last_code(), ErrorCode::kNotFound);
}

TEST(Teardown, MssDestroyedMidMountFailsStageAndArchiveOnce) {
  StorageRig rig(storage::kHrmPlugin);
  rig.archive_now("/pool/a", 64 * kMiB);
  CountingCallback stage, archive;
  rig.mss->stage("/pool/a", rig.pool,
                 stage.wrap<Result<storage::FileInfo>>());
  rig.mss->archive(rig.file("/pool/b", 64 * kMiB), archive.wrap<Status>());
  // Let the mounts begin but not finish (mount latency alone is 30s).
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  EXPECT_EQ(stage.count(), 0);
  rig.mss.reset();
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_EQ(stage.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(archive.exactly_once());
  EXPECT_EQ(archive.last_code(), ErrorCode::kUnavailable);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_TRUE(archive.exactly_once());
}

TEST(Teardown, MssStageErrorFiresOnce) {
  StorageRig rig(storage::kHrmPlugin);
  CountingCallback miss;
  rig.mss->stage("/pool/never-archived", rig.pool,
                 miss.wrap<Result<storage::FileInfo>>());
  EXPECT_TRUE(miss.exactly_once());
  EXPECT_EQ(miss.last_code(), ErrorCode::kNotFound);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  rig.mss.reset();
  EXPECT_TRUE(miss.exactly_once());
}

// ---------------------------------------------------------------- gridftp

struct FtpRig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a, stack_b;
  security::CertificateAuthority ca{"TestCA"};
  storage::Disk disk_a{simulator, {}}, disk_b{simulator, {}};
  storage::DiskPool pool_a{100 * kGiB, disk_a}, pool_b{100 * kGiB, disk_b};
  std::unique_ptr<gridftp::FtpServer> server;
  std::unique_ptr<gridftp::FtpClient> client;

  FtpRig() {
    path = net::make_wan_path(network, "src", "dst");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    server = std::make_unique<gridftp::FtpServer>(
        *stack_a, pool_a, ca, ca.issue("/CN=src", kYear));
    client = std::make_unique<gridftp::FtpClient>(*stack_b, ca,
                                                  ca.issue("/CN=dst", kYear));
    EXPECT_TRUE(server->start().is_ok());
  }
};

TEST(Teardown, FtpClientDestroyedMidTransferAbortsOnce) {
  // Regression for a bug the obligation pass surfaced: in-flight Transfer
  // objects were reachable only through simulator closures whose alive_
  // guards silently dropped them once the client died — the caller's done
  // callback never fired.
  FtpRig rig;
  (void)rig.pool_a.add_file("/pool/f", 32 * kMiB, 0x1234, 0);
  CountingCallback done;
  rig.client->get(rig.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                  "/pool/f", &rig.pool_b, {},
                  done.wrap<Result<gridftp::TransferResult>>());
  rig.simulator.run_until(rig.simulator.now() + 2 * kSecond);
  EXPECT_EQ(done.count(), 0);  // 32 MiB over a WAN: still streaming
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, FtpClientThirdPartyDestroyedAbortsOnce) {
  // Regression: the third-party size-lookup continuation returned without
  // invoking `done` when the client was already gone.
  FtpRig rig;
  (void)rig.pool_a.add_file("/pool/f", 4 * kMiB, 0x1234, 0);
  CountingCallback done;
  rig.client->third_party(rig.path.host_a->id(), gridftp::kControlPort,
                          "/pool/f", rig.path.host_a->id(),
                          gridftp::kControlPort, "/pool/copy", {},
                          done.wrap<Result<gridftp::TransferResult>>());
  rig.simulator.run_until(rig.simulator.now() + 10 * kMillisecond);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, FtpClientSuccessAndErrorFireOnceEvenAfterDestroy) {
  FtpRig rig;
  (void)rig.pool_a.add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  CountingCallback ok, missing;
  rig.client->get(rig.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                  "/pool/f", &rig.pool_b, {},
                  ok.wrap<Result<gridftp::TransferResult>>());
  rig.client->get(rig.path.host_a->id(), gridftp::kControlPort,
                  "/pool/none", "/x", &rig.pool_b, {},
                  missing.wrap<Result<gridftp::TransferResult>>());
  rig.simulator.run_until(rig.simulator.now() + 600 * kSecond);
  EXPECT_TRUE(ok.exactly_once());
  EXPECT_TRUE(ok.last_status().is_ok());
  EXPECT_TRUE(missing.exactly_once());
  EXPECT_FALSE(missing.last_status().is_ok());
  // Settled transfers must not be re-settled by the teardown drain.
  rig.client.reset();
  EXPECT_TRUE(ok.exactly_once());
  EXPECT_TRUE(missing.exactly_once());
}

// -------------------------------------------------------------------- net

TEST(Teardown, NetworkDestroyedWithPacketsInFlightFiresNothing) {
  // Links carry no liveness guard: each cancels its one delivery event when
  // destroyed. Tear the fabric down with packets queued, serializing and
  // propagating on several links, then keep the simulator running: nothing
  // may fire into a freed link (asan) and nothing may stay scheduled.
  sim::Simulator simulator;
  auto network = std::make_unique<net::Network>(simulator);
  const net::WanPath path = net::make_wan_path(*network, "src", "dst");
  int received = 0;
  for (net::Node* host : {path.host_a, path.host_b}) {
    host->set_protocol_handler(net::Protocol::kDatagram,
                               [&received](const net::Packet&) { ++received; });
  }
  for (int i = 0; i < 200; ++i) {
    for (const auto& [from, to] : {std::pair{path.host_a, path.host_b},
                                   std::pair{path.host_b, path.host_a}}) {
      net::Packet packet;
      packet.src = from->id();
      packet.dst = to->id();
      packet.protocol = net::Protocol::kDatagram;
      packet.payload_len = 1000;
      ASSERT_TRUE(from->send(packet));
    }
  }
  // 1 ms in: the LAN uplinks are still serializing the bursts and the WAN
  // links hold queued and propagating packets.
  simulator.run_until(1 * kMillisecond);
  std::vector<net::Link*> links;
  ASSERT_TRUE(network->path_links(path.host_a->id(), path.host_b->id(), links));
  ASSERT_TRUE(network->path_links(path.host_b->id(), path.host_a->id(), links));
  int busy_links = 0;
  for (const net::Link* link : links) {
    if (link->stats().packets_sent > link->stats().packets_delivered) {
      ++busy_links;
    }
  }
  EXPECT_GE(busy_links, 4);
  EXPECT_GT(simulator.pending(), 0u);

  network.reset();
  EXPECT_EQ(simulator.pending(), 0u);
  simulator.run_until(simulator.now() + 10 * kSecond);
  EXPECT_EQ(received, 0);
}

// ------------------------------------------------------------------- flow

TEST(Teardown, FlowEngineDestroyedWithClassesInFlightFiresNothing) {
  // Teardown discipline (flow/flow_engine.h): the destructor drops every
  // parked completion uninvoked. Several rate classes hold joined flows
  // with armed completion events, some also hold pending flows that a
  // deferred renegotiation has not rated yet, and a pinned class runs
  // cross traffic — none of it may fire into the freed engine (asan), and
  // nothing may stay scheduled.
  sim::Simulator simulator;
  net::Network network(simulator);
  const net::WanPath path = net::make_wan_path(network, "src", "dst");
  flow::FluidConfig config;
  config.reneg_quantum = 1 * kSecond;
  auto engine = std::make_unique<flow::FlowEngine>(simulator, network, config);

  CountingCallback joined[4], pending[3], pinned;
  const auto spec = [&](net::Node* from, net::Node* to, Bytes window) {
    flow::FlowSpec out;
    out.src = from->id();
    out.dst = to->id();
    out.bytes = 64 * kMiB;
    out.window = window;
    return out;
  };
  // Three fair-share classes: a→b, b→a, and a→b with its own window.
  const flow::FlowSpec classes[] = {spec(path.host_a, path.host_b, 0),
                                    spec(path.host_b, path.host_a, 0),
                                    spec(path.host_a, path.host_b, 256 * kKiB)};
  using Done = const flow::FlowDone&;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        engine->start(classes[i % 3], joined[i].wrap<Done>()).valid());
  }
  flow::FlowSpec cross = spec(path.host_b, path.host_a, 0);
  cross.bytes = flow::kUnboundedBytes;
  cross.pinned_rate = 5 * kMbps;
  ASSERT_TRUE(engine->start(cross, pinned.wrap<Done>()).valid());
  simulator.run_until(2 * kSecond);  // rated at t = 1 s: all joined
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->start(classes[i], pending[i].wrap<Done>()).valid());
  }
  simulator.run_until(2 * kSecond + 500 * kMillisecond);  // still pending
  EXPECT_EQ(engine->active_flows(), 8u);
  EXPECT_GT(simulator.pending(), 0u);

  engine.reset();
  EXPECT_EQ(simulator.pending(), 0u);
  simulator.run_until(simulator.now() + 3600 * kSecond);
  for (const CountingCallback& counted : joined) EXPECT_EQ(counted.count(), 0);
  for (const CountingCallback& counted : pending) EXPECT_EQ(counted.count(), 0);
  EXPECT_EQ(pinned.count(), 0);
}

// -------------------------------------------------------------------- rpc

struct RpcRig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a, stack_b;
  security::CertificateAuthority ca{"TestCA"};
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;

  RpcRig() {
    path = net::make_wan_path(network, "client", "server");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    server = std::make_unique<rpc::RpcServer>(*stack_b, 7000, ca,
                                              ca.issue("/CN=server", kYear));
    client = std::make_unique<rpc::RpcClient>(
        *stack_a, path.host_b->id(), 7000, ca, ca.issue("/CN=client", kYear));
  }
};

TEST(Teardown, RpcClientDestroyedMidCallAbortsOnce) {
  // Regression for a pass-found bug: ~RpcClient flipped the alive_ sentinel
  // (silencing the timeout closures that would have settled pending_) but
  // never drained pending_ itself — in-flight calls just vanished.
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) { /* never responds */ });
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  EXPECT_EQ(done.count(), 0);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  // The armed timeout closure must not settle the call a second time.
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientTimeoutFiresOnceAndDestroyDoesNotDouble) {
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) {});
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kTimedOut);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientSuccessFiresOnceAndDestroyDoesNotDouble) {
  RpcRig rig;
  rig.server->register_method(
      "echo", [](const security::GsiContext&, std::uint64_t,
                 std::span<const std::uint8_t> params,
                 rpc::RpcServer::Respond respond) {
        respond(Status::ok(),
                std::vector<std::uint8_t>(params.begin(), params.end()));
      });
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("echo", {1, 2, 3},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 30 * kSecond);
  EXPECT_TRUE(done.exactly_once());
  EXPECT_TRUE(done.last_status().is_ok());
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientCloseFailsPendingOnce) {
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) {});
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  rig.client->close();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kUnavailable);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

// ----------------------------------------------------------- grid services

TEST(Teardown, DataMoverDestroyedSettlesQueuedAndInFlightOnce) {
  // Regression for two pass-era bugs: queued requests were dropped with
  // their completions, and the in-flight completion lambda touched members
  // already destroyed during ~DataMover (queue_ dies before ftp_).
  testbed::GridConfig config = testbed::two_site_config();
  config.sites[1].site.gdmp.max_concurrent_transfers = 1;
  auto grid = std::make_unique<testbed::Grid>(config);
  ASSERT_TRUE(grid->start().is_ok());
  testbed::Site& producer = grid->site(0);
  testbed::Site& consumer = grid->site(1);
  const std::string remote = "/pool/teardown-src";
  (void)producer.pool().add_file(remote, 16 * kMiB, 0xBEEF, 0);

  auto& mover = consumer.gdmp_server().data_mover();
  std::vector<CountingCallback> pulls(3);
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    mover.pull(producer.host().id(), gridftp::kControlPort, remote,
               "/pool/teardown-dst" + std::to_string(i), mover.defaults(),
               pulls[i].wrap<Result<gridftp::TransferResult>>());
  }
  grid->run_until(grid->simulator().now() + 2 * kSecond);
  EXPECT_EQ(mover.in_flight(), 1);
  EXPECT_EQ(mover.queued(), 2u);
  grid.reset();
  for (const CountingCallback& pull : pulls) {
    EXPECT_TRUE(pull.exactly_once());
    EXPECT_EQ(pull.last_code(), ErrorCode::kAborted);
  }
}

TEST(Teardown, StorageManagerDestroyedFailsCoalescedWaitersOnce) {
  testbed::GridConfig config = testbed::two_site_config();
  config.sites[0].site.has_mss = true;
  auto grid = std::make_unique<testbed::Grid>(config);
  ASSERT_TRUE(grid->start().is_ok());
  testbed::Site& site = grid->site(0);
  (void)site.pool().add_file("/pool/f", 10 * kMiB, 3, 0);
  CountingCallback archived;
  site.gdmp_server().storage_manager().archive("/pool/f",
                                               archived.wrap<Status>());
  grid->run_until(grid->simulator().now() + 600 * kSecond);
  ASSERT_TRUE(archived.exactly_once());
  ASSERT_TRUE(archived.last_status().is_ok());
  (void)site.pool().remove("/pool/f");

  // Two coalesced waiters parked behind one 30s tape mount.
  auto& manager = site.gdmp_server().storage_manager();
  CountingCallback first, second;
  manager.ensure_on_disk("/pool/f",
                         first.wrap<Result<storage::FileInfo>>());
  manager.ensure_on_disk("/pool/f",
                         second.wrap<Result<storage::FileInfo>>());
  grid->run_until(grid->simulator().now() + 1 * kSecond);
  EXPECT_EQ(first.count(), 0);
  grid.reset();
  EXPECT_TRUE(first.exactly_once());
  EXPECT_EQ(first.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(second.exactly_once());
  EXPECT_EQ(second.last_code(), ErrorCode::kUnavailable);
}

TEST(Teardown, SchedulerDestroyedFailsQueuedAndInFlightOnce) {
  testbed::GridConfig config = testbed::two_site_config();
  config.sites[1].site.sched.max_concurrent = 1;
  auto grid = std::make_unique<testbed::Grid>(config);
  ASSERT_TRUE(grid->start().is_ok());

  // Publish three replicas the consumer can schedule.
  std::vector<LogicalFileName> lfns;
  std::vector<core::PublishedFile> files;
  for (int i = 0; i < 3; ++i) {
    const LogicalFileName lfn = "lfn://cms/teardown/" + std::to_string(i);
    (void)grid->site(0).pool().add_file(
        grid->site(0).gdmp_server().local_path_for(lfn), 32 * kMiB, 0xF00D,
        0);
    core::PublishedFile file;
    file.lfn = lfn;
    files.push_back(file);
    lfns.push_back(lfn);
  }
  bool published = false;
  grid->site(0).gdmp().publish(files, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    published = true;
  });
  grid->run_until(grid->simulator().now() + 120 * kSecond);
  ASSERT_TRUE(published);

  auto& scheduler = grid->site(1).scheduler();
  std::vector<CountingCallback> dones(3);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < lfns.size(); ++i) {
    ids.push_back(scheduler.submit(
        lfns[i], 0, dones[i].wrap<Result<gridftp::TransferResult>>()));
  }
  grid->run_until(grid->simulator().now() + 1 * kSecond);

  // Cancel one queued request (exactly-once via the cancel path)...
  EXPECT_TRUE(scheduler.cancel(ids[2]));
  EXPECT_TRUE(dones[2].exactly_once());
  EXPECT_EQ(dones[2].last_code(), ErrorCode::kAborted);
  EXPECT_FALSE(scheduler.cancel(ids[2]));
  EXPECT_TRUE(dones[2].exactly_once());

  // ...then tear the grid down with one transfer in flight and one queued.
  EXPECT_EQ(dones[0].count(), 0);
  EXPECT_EQ(dones[1].count(), 0);
  grid.reset();
  for (const CountingCallback& done : dones) {
    EXPECT_TRUE(done.exactly_once());
    EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  }
}

}  // namespace
}  // namespace gdmp
