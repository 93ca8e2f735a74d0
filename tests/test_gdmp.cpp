// Tests for the GDMP core: catalog service, storage manager, file-type
// plug-ins, publish/subscribe/replicate on a two-site grid.
#include <gtest/gtest.h>

#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::core {
namespace {

using testbed::Grid;
using testbed::GridConfig;
using testbed::Site;
using testbed::two_site_config;

struct TwoSiteFixture {
  Grid grid;

  explicit TwoSiteFixture(GridConfig config = two_site_config())
      : grid(customize(std::move(config))) {
    EXPECT_TRUE(grid.start().is_ok());
  }

  static GridConfig customize(GridConfig config) {
    config.event_count = 20000;
    for (auto& spec : config.sites) {
      spec.site.gdmp.transfer.parallel_streams = 4;
      spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    }
    return config;
  }

  Site& producer() { return grid.site(0); }
  Site& consumer() { return grid.site(1); }

  /// Produce + publish a run at the producer; returns the LFNs.
  std::vector<LogicalFileName> publish_run(std::int64_t events = 4000) {
    testbed::ProductionConfig production;
    production.tier = objstore::Tier::kAod;
    production.event_hi = events;
    auto files = testbed::produce_run(producer(), production);
    std::vector<LogicalFileName> lfns;
    for (const auto& file : files) lfns.push_back(file.lfn);
    bool published = false;
    producer().gdmp().publish(files, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      published = true;
    });
    grid.run_until(grid.simulator().now() + 120 * kSecond);
    EXPECT_TRUE(published);
    return lfns;
  }
};

TEST(GdmpCatalogService, PublishLookupRoundTrip) {
  TwoSiteFixture f;
  (void)f.producer().pool().add_file("/pool/lfn://cms/x", 1 * kMiB, 7, 0);
  PublishedFile file;
  file.lfn = "lfn://cms/x";
  bool published = false;
  f.producer().gdmp().publish({file}, [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    published = true;
  });
  f.grid.run_until(60 * kSecond);
  ASSERT_TRUE(published);

  bool looked_up = false;
  f.consumer().gdmp_server().catalog().lookup(
      "cms", "lfn://cms/x", [&](Result<ReplicaInfo> info) {
        looked_up = true;
        ASSERT_TRUE(info.is_ok()) << info.status().to_string();
        EXPECT_EQ(info->attributes.size, 1 * kMiB);
        ASSERT_EQ(info->locations.size(), 1u);
        EXPECT_EQ(info->locations[0],
                  "gsiftp://cern:2811/pool/lfn://cms/x");
      });
  f.grid.run_until(120 * kSecond);
  EXPECT_TRUE(looked_up);
}

TEST(GdmpCatalogService, DuplicatePublishRejected) {
  TwoSiteFixture f;
  (void)f.producer().pool().add_file("/pool/lfn://cms/dup", 1024, 7, 0);
  PublishedFile file;
  file.lfn = "lfn://cms/dup";
  Status second = Status::ok();
  f.producer().gdmp().publish({file}, [&](Status) {});
  f.grid.run_until(60 * kSecond);
  f.producer().gdmp().publish({file}, [&](Status s) { second = s; });
  f.grid.run_until(120 * kSecond);
  EXPECT_EQ(second.code(), ErrorCode::kAlreadyExists);
}

TEST(GdmpCatalogService, SearchWithFilter) {
  TwoSiteFixture f;
  for (int i = 0; i < 5; ++i) {
    (void)f.producer().pool().add_file("/pool/lfn://cms/s" + std::to_string(i),
                                       (i + 1) * 1000, 7, 0);
    PublishedFile file;
    file.lfn = "lfn://cms/s" + std::to_string(i);
    f.producer().gdmp().publish({file}, [](Status) {});
  }
  f.grid.run_until(60 * kSecond);
  std::size_t matches = 0;
  f.consumer().gdmp_server().catalog().search(
      "cms", "(size>=3000)", [&](Result<std::vector<ReplicaInfo>> result) {
        ASSERT_TRUE(result.is_ok());
        matches = result->size();
      });
  f.grid.run_until(120 * kSecond);
  EXPECT_EQ(matches, 3u);
}

TEST(Gdmp, PublishNotifiesSubscribers) {
  TwoSiteFixture f;
  bool subscribed = false;
  f.consumer().gdmp().subscribe(f.producer().host().id(), 2000,
                                [&](Status s) { subscribed = s.is_ok(); });
  f.grid.run_until(30 * kSecond);
  ASSERT_TRUE(subscribed);
  EXPECT_EQ(f.producer().gdmp_server().subscribers().size(), 1u);

  std::vector<std::string> notified;
  f.consumer().gdmp_server().on_notification =
      [&](const std::string& from, const PublishedFile& file) {
        EXPECT_EQ(from, "cern");
        notified.push_back(file.lfn);
      };
  const auto lfns = f.publish_run(2000);
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(notified.size(), lfns.size());
  EXPECT_GT(f.producer().gdmp_server().stats().notifications_sent, 0);
}

TEST(Gdmp, ReplicateMovesFileAndRegistersReplica) {
  TwoSiteFixture f;
  const auto lfns = f.publish_run(2000);
  ASSERT_FALSE(lfns.empty());
  bool replicated = false;
  f.consumer().gdmp().get_file(
      lfns[0], [&](Result<gridftp::TransferResult> result) {
        replicated = true;
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        EXPECT_GT(result->bytes, 0);
      });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(replicated);
  // File is on the consumer's disk, attached to its federation, and the
  // catalog now lists both locations.
  const std::string local = f.consumer().gdmp_server().local_path_for(lfns[0]);
  EXPECT_TRUE(f.consumer().pool().contains(local));
  EXPECT_TRUE(f.consumer().federation()->is_attached(local));
  std::size_t locations = 0;
  f.consumer().gdmp_server().catalog().lookup(
      "cms", lfns[0], [&](Result<ReplicaInfo> info) {
        ASSERT_TRUE(info.is_ok());
        locations = info->locations.size();
      });
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(locations, 2u);
}

TEST(Gdmp, ReplicateUnknownFileFails) {
  TwoSiteFixture f;
  Status status = Status::ok();
  f.consumer().gdmp().get_file(
      "lfn://cms/ghost",
      [&](Result<gridftp::TransferResult> r) { status = r.status(); });
  f.grid.run_until(120 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(Gdmp, AutoReplicationOnNotify) {
  GridConfig config = two_site_config();
  config.sites[1].site.gdmp.auto_replicate_on_notify = true;
  TwoSiteFixture f(config);
  bool subscribed = false;
  f.consumer().gdmp().subscribe(f.producer().host().id(), 2000,
                                [&](Status s) { subscribed = s.is_ok(); });
  f.grid.run_until(30 * kSecond);
  ASSERT_TRUE(subscribed);
  const auto lfns = f.publish_run(2000);
  f.grid.run_until(f.grid.simulator().now() + 1800 * kSecond);
  for (const auto& lfn : lfns) {
    EXPECT_TRUE(f.consumer().pool().contains(
        f.consumer().gdmp_server().local_path_for(lfn)))
        << lfn;
  }
  EXPECT_EQ(f.consumer().gdmp_server().stats().files_replicated,
            static_cast<std::int64_t>(lfns.size()));
}

TEST(Gdmp, GetFilesReplicatesBatch) {
  TwoSiteFixture f;
  const auto lfns = f.publish_run(4000);
  ASSERT_GE(lfns.size(), 2u);
  Status status = make_error(ErrorCode::kInternal, "pending");
  Bytes moved = 0;
  f.consumer().gdmp().get_files(lfns, [&](Status s, Bytes bytes) {
    status = s;
    moved = bytes;
  });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(moved, static_cast<Bytes>(lfns.size()) * 2000 * 10 * kKiB);
}

TEST(Gdmp, FailureRecoveryViaRemoteCatalog) {
  TwoSiteFixture f;
  const auto lfns = f.publish_run(4000);
  // Consumer has nothing; the remote export catalog reports all missing.
  std::vector<PublishedFile> missing;
  f.consumer().gdmp().missing_from(
      f.producer().host().id(), 2000,
      [&](Result<std::vector<PublishedFile>> result) {
        ASSERT_TRUE(result.is_ok());
        missing = std::move(*result);
      });
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(missing.size(), lfns.size());

  // Replicate one, then the missing set shrinks by one.
  bool done = false;
  f.consumer().gdmp().get_file(
      lfns[0], [&](Result<gridftp::TransferResult>) { done = true; });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(done);
  f.consumer().gdmp().missing_from(
      f.producer().host().id(), 2000,
      [&](Result<std::vector<PublishedFile>> result) {
        ASSERT_TRUE(result.is_ok());
        missing = std::move(*result);
      });
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(missing.size(), lfns.size() - 1);
}

TEST(Gdmp, StagingFromMssOnDemand) {
  GridConfig config = two_site_config();
  config.sites[0].site.has_mss = true;
  // A pool big enough for the run but evictable afterwards.
  config.sites[0].site.pool_capacity = 1 * kGiB;
  TwoSiteFixture f(config);
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 2000;
  production.archive_to_mss = true;
  auto files = testbed::produce_run(f.producer(), production);
  ASSERT_FALSE(files.empty());
  bool published = false;
  f.producer().gdmp().publish(files, [&](Status s) {
    published = s.is_ok();
  });
  f.grid.run_until(600 * kSecond);
  ASSERT_TRUE(published);

  // Evict the disk copy; the archive copy remains.
  const std::string path = files[0].local_path;
  ASSERT_TRUE(f.producer().mss()->in_archive(path));
  (void)f.producer().pool().remove(path);
  ASSERT_FALSE(f.producer().pool().contains(path));

  // Replication must trigger the stage and still succeed.
  bool replicated = false;
  f.consumer().gdmp().get_file(
      files[0].lfn, [&](Result<gridftp::TransferResult> result) {
        replicated = true;
        EXPECT_TRUE(result.is_ok()) << result.status().to_string();
      });
  f.grid.run_until(f.grid.simulator().now() + 1800 * kSecond);
  ASSERT_TRUE(replicated);
  EXPECT_GT(f.producer().gdmp_server().storage_manager().stats()
                .stage_requests,
            0);
}

TEST(Gdmp, AclBlocksUnauthorizedSubscribe) {
  TwoSiteFixture f;
  security::AccessControl acl;
  acl.allow(security::Operation::kSubscribe, "/O=Grid/OU=slac/*");
  f.producer().gdmp_server().set_access_control(std::move(acl));
  Status status = Status::ok();
  f.consumer().gdmp().subscribe(f.producer().host().id(), 2000,
                                [&](Status s) { status = s; });
  f.grid.run_until(60 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
}

TEST(Gdmp, ObjectivityPostProcessAttachesOnConsumer) {
  TwoSiteFixture f;
  const auto lfns = f.publish_run(2000);
  bool done = false;
  f.consumer().gdmp().get_file(lfns[0],
                               [&](Result<gridftp::TransferResult> r) {
                                 done = r.is_ok();
                               });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(done);
  // Objects from the replicated range file are now readable locally.
  objstore::PersistencyLayer& persistency = *f.consumer().persistency();
  Bytes read = 0;
  persistency.read_object(
      objstore::make_object_id(objstore::Tier::kAod, 100),
      [&](Result<Bytes> r) { read = r.value_or(0); });
  f.grid.run_until(f.grid.simulator().now() + 10 * kSecond);
  EXPECT_EQ(read, 10 * kKiB);
}

/// A data plane as a test parameter; it prints as the ctest name suffix.
struct Plane {
  flow::TransferModel model;
  friend void PrintTo(const Plane& plane, std::ostream* os) {
    *os << (plane.model == flow::TransferModel::kFluid ? "fluid" : "packet");
  }
};

class GdmpZeroByte : public ::testing::TestWithParam<Plane> {};

TEST_P(GdmpZeroByte, EmptyFileReplicatesOnFirstAttempt) {
  GridConfig config = two_site_config();
  config.transfer_model = GetParam().model;
  TwoSiteFixture f(config);
  const std::string source_path = "/pool/lfn://cms/empty";
  (void)f.producer().pool().add_file(source_path, 0, 0x5eed, 0);
  PublishedFile file;
  file.lfn = "lfn://cms/empty";
  bool published = false;
  f.producer().gdmp().publish({file}, [&](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    published = true;
  });
  f.grid.run_until(60 * kSecond);
  ASSERT_TRUE(published);

  Result<gridftp::TransferResult> outcome =
      make_error(ErrorCode::kInternal, "pending");
  f.consumer().gdmp().get_file(
      file.lfn,
      [&](Result<gridftp::TransferResult> r) { outcome = std::move(r); });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  const auto source = f.producer().pool().peek(source_path);
  ASSERT_TRUE(source.is_ok());
  EXPECT_EQ(outcome->bytes, 0);
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_EQ(outcome->crc, source->crc());
  const auto local = f.consumer().pool().peek(
      f.consumer().gdmp_server().local_path_for(file.lfn));
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local->size, 0);
  EXPECT_EQ(local->crc(), source->crc());
}

INSTANTIATE_TEST_SUITE_P(BothPlanes, GdmpZeroByte,
                         ::testing::Values(Plane{flow::TransferModel::kPacket},
                                           Plane{flow::TransferModel::kFluid}));

TEST(Gdmp, GeneratedLfnsAreUnique) {
  TwoSiteFixture f;
  auto& client = f.producer().gdmp();
  const auto a = client.generate_lfn("db");
  const auto b = client.generate_lfn("db");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.find("cern") != std::string::npos);
}

TEST(StorageManagerUnit, CoalescesDuplicateStages) {
  TwoSiteFixture f;  // reuse grid wiring for a site with no MSS
  GridConfig config = two_site_config();
  config.sites[0].site.has_mss = true;
  Grid grid(TwoSiteFixture::customize(config));
  ASSERT_TRUE(grid.start().is_ok());
  Site& site = grid.site(0);
  // Archive a file, drop the disk copy, then trigger two parallel stages.
  (void)site.pool().add_file("/pool/f", 10 * kMiB, 3, 0);
  site.gdmp_server().storage_manager().archive("/pool/f", [](Status) {});
  grid.run_until(600 * kSecond);
  (void)site.pool().remove("/pool/f");
  int completions = 0;
  auto& manager = site.gdmp_server().storage_manager();
  manager.ensure_on_disk("/pool/f", [&](Result<storage::FileInfo> r) {
    ASSERT_TRUE(r.is_ok());
    ++completions;
  });
  manager.ensure_on_disk("/pool/f", [&](Result<storage::FileInfo> r) {
    ASSERT_TRUE(r.is_ok());
    ++completions;
  });
  grid.run_until(grid.simulator().now() + 600 * kSecond);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(manager.stats().stages_coalesced, 1);
  EXPECT_EQ(site.mss()->stats().stages, 1);
}

}  // namespace
}  // namespace gdmp::core
