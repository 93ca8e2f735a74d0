// Integration tests: multi-site scenarios exercising the full stack.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/crc32.h"
#include "objrep/selection.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp {
namespace {

using core::PublishedFile;
using testbed::Grid;
using testbed::GridConfig;
using testbed::Site;

GridConfig three_site_config() {
  GridConfig config;
  config.event_count = 20000;
  for (const char* name : {"cern", "caltech", "slac"}) {
    testbed::GridSiteSpec spec;
    spec.name = name;
    spec.wan.wan_one_way_delay = 31 * kMillisecond;
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    config.sites.push_back(spec);
  }
  return config;
}

TEST(Integration, ThreeSiteFanOutReplication) {
  Grid grid(three_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  Site& cern = grid.site(0);

  // Both consumers subscribe, CERN publishes, both auto-pull manually.
  for (std::size_t i : {1u, 2u}) {
    bool subscribed = false;
    grid.site(i).gdmp().subscribe(cern.host().id(), 2000,
                                  [&](Status s) { subscribed = s.is_ok(); });
    grid.run_until(grid.simulator().now() + 30 * kSecond);
    ASSERT_TRUE(subscribed);
  }
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 4000;
  auto files = testbed::produce_run(cern, production);
  std::vector<LogicalFileName> lfns;
  for (const auto& file : files) lfns.push_back(file.lfn);
  cern.gdmp().publish(files, [](Status s) { ASSERT_TRUE(s.is_ok()); });
  grid.run_until(grid.simulator().now() + 120 * kSecond);

  for (std::size_t i : {1u, 2u}) {
    Status status = make_error(ErrorCode::kInternal, "pending");
    grid.site(i).gdmp().get_files(lfns,
                                  [&](Status s, Bytes) { status = s; });
    grid.run_until(grid.simulator().now() + 3600 * kSecond);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  }

  // Every logical file now has three catalog locations.
  std::size_t locations = 0;
  cern.gdmp_server().catalog().lookup(
      "cms", lfns[0], [&](Result<core::ReplicaInfo> info) {
        ASSERT_TRUE(info.is_ok());
        locations = info->locations.size();
      });
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(locations, 3u);
}

TEST(Integration, SecondConsumerPullsFromNearestOfTwoReplicas) {
  // After caltech replicates from cern, slac can be served by either; the
  // request's source chooser picks the second candidate (caltech).
  Grid grid(three_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 2000;
  auto files = testbed::produce_run(grid.site(0), production);
  const LogicalFileName lfn = files[0].lfn;
  grid.site(0).gdmp().publish(files, [](Status) {});
  grid.run_until(grid.simulator().now() + 120 * kSecond);

  bool caltech_done = false;
  grid.site(1).gdmp().get_file(
      lfn, [&](Result<gridftp::TransferResult> r) {
        caltech_done = r.is_ok();
      });
  grid.run_until(grid.simulator().now() + 1800 * kSecond);
  ASSERT_TRUE(caltech_done);

  std::vector<std::string> seen_hosts;
  core::GdmpServer::ReplicateOptions options;
  options.choose_source =
      [&](const std::vector<Uri>& candidates) -> Result<std::size_t> {
    for (const Uri& uri : candidates) seen_hosts.push_back(uri.host);
    return std::size_t{1};  // prefer the second (caltech) replica
  };
  bool slac_done = false;
  grid.site(2).gdmp_server().replicate(
      lfn, std::move(options),
      [&](Result<gridftp::TransferResult> r) { slac_done = r.is_ok(); });
  grid.run_until(grid.simulator().now() + 1800 * kSecond);
  ASSERT_TRUE(slac_done);
  ASSERT_EQ(seen_hosts.size(), 2u);  // both replicas offered to the chooser
  EXPECT_NE(std::find(seen_hosts.begin(), seen_hosts.end(), "caltech"),
            seen_hosts.end());
  EXPECT_NE(std::find(seen_hosts.begin(), seen_hosts.end(), "cern"),
            seen_hosts.end());
}

TEST(Integration, ObjectReplicationAfterFileReplication) {
  // caltech file-replicates part of the AOD tier, then slac object-
  // replicates a sparse selection; the index should allow sourcing from
  // either site.
  Grid grid(three_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = grid.model().event_count();
  auto files = testbed::produce_run(grid.site(0), production);
  grid.site(0).gdmp().publish(files, [](Status) {});
  grid.run_until(grid.simulator().now() + 120 * kSecond);

  for (const char* source_site : {"cern"}) {
    bool indexed = false;
    grid.site(2).objrep().refresh_index_from(
        source_site, grid.find_site(source_site)->host().id(), 2000,
        [&](Status s) { indexed = s.is_ok(); });
    grid.run_until(grid.simulator().now() + 60 * kSecond);
    ASSERT_TRUE(indexed);
  }

  Rng rng(11);
  objrep::SelectionConfig selection;
  selection.fraction = 1e-3;
  const auto needed = objrep::select_objects(grid.model(), selection, rng);
  bool done = false;
  grid.site(2).objrep().replicate_objects(
      needed,
      [&](Result<objrep::ObjectReplicationService::Outcome> result) {
        done = true;
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      });
  grid.run_until(grid.simulator().now() + 7200 * kSecond);
  ASSERT_TRUE(done);
  for (const ObjectId id : needed) {
    EXPECT_TRUE(grid.site(2).persistency()->available(id));
  }
}

TEST(Integration, CrossTrafficSlowsTransfers) {
  // Untuned windows keep the flows loss-free, so the comparison is
  // deterministic: 8 x 64 KiB windows demand ~34 Mbit/s, which fits an
  // idle 45 Mbit/s link but not one sharing with 18 Mbit/s of CBR.
  double idle_mbps = 0, shared_mbps = 0;
  for (const bool shared : {false, true}) {
    GridConfig config =
        testbed::two_site_config("cern", "anl", shared ? 18 * kMbps : 0);
    config.event_count = 10000;
    for (auto& spec : config.sites) {
      spec.site.gdmp.transfer.parallel_streams = 8;
      spec.site.gdmp.transfer.tcp_buffer = 64 * kKiB;
    }
    Grid grid(config);
    ASSERT_TRUE(grid.start().is_ok());
    (void)grid.site(0).pool().add_file("/pool/lfn://cms/f", 40 * kMiB, 5, 0);
    PublishedFile file;
    file.lfn = "lfn://cms/f";
    grid.site(0).gdmp().publish({file}, [](Status) {});
    grid.run_until(grid.simulator().now() + 60 * kSecond);
    double mbps = 0;
    grid.site(1).gdmp().get_file(
        "lfn://cms/f", [&](Result<gridftp::TransferResult> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          mbps = r->mbps;
        });
    grid.run_until(grid.simulator().now() + 3600 * kSecond);
    (shared ? shared_mbps : idle_mbps) = mbps;
  }
  EXPECT_GT(idle_mbps, shared_mbps * 1.1);
}

TEST(Integration, ReplicationSurvivesCorruptingSource) {
  GridConfig config = testbed::two_site_config();
  config.event_count = 10000;
  config.sites[0].site.ftp.corrupt_probability = 0.5;
  config.sites[0].site.ftp.fault_seed = 1;
  for (auto& spec : config.sites) {
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    spec.site.gdmp.transfer.max_attempts = 10;
  }
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  (void)grid.site(0).pool().add_file("/pool/lfn://cms/f", 8 * kMiB, 5, 0);
  PublishedFile file;
  file.lfn = "lfn://cms/f";
  grid.site(0).gdmp().publish({file}, [](Status) {});
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  bool done = false;
  int attempts = 0;
  grid.site(1).gdmp().get_file(
      "lfn://cms/f", [&](Result<gridftp::TransferResult> r) {
        done = true;
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        attempts = r->attempts;
      });
  grid.run_until(grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(attempts, 1);
  // The delivered replica matches the catalog checksum.
  const auto local = grid.site(1).pool().peek("/pool/lfn://cms/f");
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local->crc(), crc32_synthetic(5, 0, 8 * kMiB));
}

}  // namespace
}  // namespace gdmp
