// Tests for the globus_url_copy front end: URL resolution, remote copies,
// striped multi-source retrieval, and the replica selection helpers.
#include <gtest/gtest.h>

#include "common/crc32.h"
#include "gdmp/replica_selection.h"
#include "gridftp/server.h"
#include "gridftp/url_copy.h"
#include "net/topology.h"

namespace gdmp::gridftp {
namespace {

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;

struct StarFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::GridTopology topo;
  security::CertificateAuthority ca{"TestCA"};
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::vector<std::unique_ptr<storage::DiskPool>> pools;
  std::vector<std::unique_ptr<FtpServer>> servers;

  explicit StarFixture(std::vector<std::string> names) {
    std::vector<net::GridSiteLink> links;
    for (const auto& name : names) links.push_back({name, {}});
    topo = net::make_grid_topology(network, links);
    for (std::size_t i = 0; i < names.size(); ++i) {
      stacks.push_back(
          std::make_unique<net::TcpStack>(simulator, *topo.hosts[i]));
      disks.push_back(std::make_unique<storage::Disk>(simulator,
                                                      storage::DiskConfig{}));
      pools.push_back(
          std::make_unique<storage::DiskPool>(100 * kGiB, *disks.back()));
      servers.push_back(std::make_unique<FtpServer>(
          *stacks.back(), *pools.back(), ca,
          ca.issue("/CN=" + names[i], kYear)));
      EXPECT_TRUE(servers.back()->start().is_ok());
    }
  }
};

TEST(UrlCopy, CopyToLocalResolvesUrl) {
  StarFixture f({"ctl", "src"});
  (void)f.pools[1]->add_file("/pool/f", 2 * kMiB, 0xaa, 0);
  UrlCopy copier(f.network, *f.stacks[0], f.ca,
                 f.ca.issue("/CN=user", kYear));
  bool done = false;
  copier.copy_to_local("gsiftp://src:2811/pool/f", "/local/f", *f.pools[0],
                       TransferOptions{}, [&](Result<TransferResult> r) {
                         done = true;
                         ASSERT_TRUE(r.is_ok()) << r.status().to_string();
                         EXPECT_EQ(r->bytes, 2 * kMiB);
                       });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(f.pools[0]->contains("/local/f"));
}

TEST(UrlCopy, RejectsBadUrls) {
  StarFixture f({"ctl"});
  UrlCopy copier(f.network, *f.stacks[0], f.ca,
                 f.ca.issue("/CN=user", kYear));
  Status status = Status::ok();
  copier.copy_to_local("http://src/pool/f", "/x", *f.pools[0],
                       TransferOptions{},
                       [&](Result<TransferResult> r) { status = r.status(); });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  copier.copy_to_local("gsiftp://nosuchhost/pool/f", "/x", *f.pools[0],
                       TransferOptions{},
                       [&](Result<TransferResult> r) { status = r.status(); });
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(UrlCopy, CopyFromLocalAndRemote) {
  StarFixture f({"ctl", "a", "b"});
  (void)f.pools[0]->add_file("/local/x", 1 * kMiB, 0xbb, 0);
  UrlCopy copier(f.network, *f.stacks[0], f.ca,
                 f.ca.issue("/CN=user", kYear));
  bool put_done = false;
  copier.copy_from_local(*f.pools[0], "/local/x", "gsiftp://a:2811/pool/x",
                         TransferOptions{},
                         [&](Result<TransferResult> r) {
                           put_done = r.is_ok();
                         });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(put_done);
  ASSERT_TRUE(f.pools[1]->contains("/pool/x"));

  // Third-party: a -> b without the payload touching ctl.
  bool remote_done = false;
  copier.copy_remote("gsiftp://a:2811/pool/x", "gsiftp://b:2811/pool/x",
                     TransferOptions{},
                     [&](Result<TransferResult> r) {
                       remote_done = r.is_ok();
                     });
  f.simulator.run_until(f.simulator.now() + 600 * kSecond);
  ASSERT_TRUE(remote_done);
  EXPECT_TRUE(f.pools[2]->contains("/pool/x"));
}

TEST(UrlCopy, StripedGetAssemblesFromMultipleSources) {
  StarFixture f({"dst", "s1", "s2", "s3"});
  const Bytes size = 6 * kMiB;
  for (std::size_t i : {1u, 2u, 3u}) {
    (void)f.pools[i]->add_file("/pool/big", size, 0xcc, 0);
  }
  UrlCopy copier(f.network, *f.stacks[0], f.ca,
                 f.ca.issue("/CN=user", kYear));
  TransferOptions options;
  options.parallel_streams = 2;
  bool done = false;
  SimTime completed_at = -1;
  copier.striped_get({"gsiftp://s1:2811/pool/big", "gsiftp://s2:2811/pool/big",
                      "gsiftp://s3:2811/pool/big"},
                     "/local/big", f.pools[0].get(), options,
                     [&](Result<TransferResult> r) {
                       done = true;
                       completed_at = f.simulator.now();
                       ASSERT_TRUE(r.is_ok()) << r.status().to_string();
                       EXPECT_EQ(r->bytes, size);
                       EXPECT_EQ(r->content_seed, 0xccu);
                       EXPECT_EQ(r->crc, crc32_synthetic(0xcc, 0, size));
                       EXPECT_EQ(r->streams, 6);
                     });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  const auto assembled = f.pools[0]->peek("/local/big");
  ASSERT_TRUE(assembled.is_ok());
  EXPECT_EQ(assembled->size, size);
  EXPECT_EQ(assembled->content_seed, 0xccu);
  // The assembled replica is stamped with the run's clock at completion
  // (GdmpServer::publish copies this into the catalog).
  EXPECT_GT(completed_at, 0);
  EXPECT_EQ(assembled->modify_time, completed_at);
}

TEST(UrlCopy, StripedGetDetectsDivergentSources) {
  StarFixture f({"dst", "s1", "s2"});
  (void)f.pools[1]->add_file("/pool/big", 2 * kMiB, 0x11, 0);
  (void)f.pools[2]->add_file("/pool/big", 2 * kMiB, 0x22, 0);  // different!
  UrlCopy copier(f.network, *f.stacks[0], f.ca,
                 f.ca.issue("/CN=user", kYear));
  Status status = Status::ok();
  copier.striped_get(
      {"gsiftp://s1:2811/pool/big", "gsiftp://s2:2811/pool/big"},
      "/local/big", f.pools[0].get(), TransferOptions{},
      [&](Result<TransferResult> r) { status = r.status(); });
  f.simulator.run_until(600 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kCorrupted);
  EXPECT_FALSE(f.pools[0]->contains("/local/big"));
}

TEST(UrlCopy, StripedGetFasterThanSingleSourceWhenSourceLimited) {
  // Each source uplink is 10 Mbit/s; striping over three sources should
  // roughly triple the single-source rate.
  sim::Simulator simulator;
  net::Network network(simulator);
  std::vector<net::GridSiteLink> links;
  for (const char* name : {"dst", "s1", "s2", "s3"}) {
    net::GridSiteLink link;
    link.site_name = name;
    link.wan.wan_bandwidth = name[0] == 'd' ? 155 * kMbps : 10 * kMbps;
    links.push_back(link);
  }
  auto topo = net::make_grid_topology(network, links);
  security::CertificateAuthority ca("TestCA");
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::vector<std::unique_ptr<storage::DiskPool>> pools;
  std::vector<std::unique_ptr<FtpServer>> servers;
  for (std::size_t i = 0; i < 4; ++i) {
    stacks.push_back(std::make_unique<net::TcpStack>(simulator, *topo.hosts[i]));
    disks.push_back(std::make_unique<storage::Disk>(simulator, storage::DiskConfig{}));
    pools.push_back(std::make_unique<storage::DiskPool>(100 * kGiB, *disks.back()));
    servers.push_back(std::make_unique<FtpServer>(
        *stacks.back(), *pools.back(), ca,
        ca.issue("/CN=" + std::string(links[i].site_name), kYear)));
    ASSERT_TRUE(servers.back()->start().is_ok());
  }
  const Bytes size = 8 * kMiB;
  for (std::size_t i : {1u, 2u, 3u}) {
    (void)pools[i]->add_file("/pool/big", size, 9, 0);
  }
  UrlCopy copier(network, *stacks[0], ca, ca.issue("/CN=user", kYear));
  TransferOptions options;
  options.tcp_buffer = 1 * kMiB;

  double single = 0, striped = 0;
  copier.copy_to_local("gsiftp://s1:2811/pool/big", "/one", *pools[0],
                       options, [&](Result<TransferResult> r) {
                         if (r.is_ok()) single = r->mbps;
                       });
  simulator.run_until(simulator.now() + 600 * kSecond);
  copier.striped_get({"gsiftp://s1:2811/pool/big", "gsiftp://s2:2811/pool/big",
                      "gsiftp://s3:2811/pool/big"},
                     "/striped", pools[0].get(), options,
                     [&](Result<TransferResult> r) {
                       if (r.is_ok()) striped = r->mbps;
                     });
  simulator.run_until(simulator.now() + 600 * kSecond);
  ASSERT_GT(single, 0);
  ASSERT_GT(striped, 0);
  EXPECT_GT(striped, single * 1.5);
}

}  // namespace
}  // namespace gdmp::gridftp

namespace gdmp::core {
namespace {

TEST(ReplicaSelection, RemoteCandidatesSkipOwnSiteAndMalformed) {
  const std::vector<PhysicalFileName> locations = {
      "gsiftp://cern:2811/pool/f", "not a url", "gsiftp://lyon:2811/pool/f",
      "gsiftp://anl:2811/pool/f"};
  const std::vector<Uri> remote = remote_candidates(locations, "lyon");
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_EQ(remote[0].host, "cern");
  EXPECT_EQ(remote[1].host, "anl");
  EXPECT_EQ(remote[1].path, "/pool/f");
  EXPECT_TRUE(remote_candidates({"gsiftp://lyon/pool/f"}, "lyon").empty());
}

}  // namespace
}  // namespace gdmp::core
