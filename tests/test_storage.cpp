// Tests for the storage substrate: filesystem, disk pool, MSS and its
// access plug-ins.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "storage/disk_pool.h"
#include "storage/mss.h"

namespace gdmp::storage {
namespace {

TEST(FileSystem, CreateStatRemove) {
  FileSystem fs;
  auto created = fs.create("/pool/a", 100, 7, 5);
  ASSERT_TRUE(created.is_ok());
  EXPECT_EQ(created->size, 100);
  EXPECT_TRUE(fs.exists("/pool/a"));
  EXPECT_EQ(fs.total_bytes(), 100);
  ASSERT_TRUE(fs.remove("/pool/a").is_ok());
  EXPECT_FALSE(fs.exists("/pool/a"));
  EXPECT_EQ(fs.total_bytes(), 0);
  EXPECT_EQ(fs.remove("/pool/a").code(), ErrorCode::kNotFound);
}

TEST(FileSystem, CreateRefusesOverwriteUnlessReplace) {
  FileSystem fs;
  ASSERT_TRUE(fs.create("/f", 10, 1, 0).is_ok());
  EXPECT_EQ(fs.create("/f", 20, 2, 1).code(), ErrorCode::kAlreadyExists);
  auto replaced = fs.create("/f", 20, 2, 1, /*replace=*/true);
  ASSERT_TRUE(replaced.is_ok());
  EXPECT_EQ(fs.total_bytes(), 20);
}

TEST(FileSystem, ListByPrefix) {
  FileSystem fs;
  (void)fs.create("/pool/run1.0", 1, 0, 0);
  (void)fs.create("/pool/run1.1", 1, 0, 0);
  (void)fs.create("/pool/run2.0", 1, 0, 0);
  (void)fs.create("/tmp/x", 1, 0, 0);
  EXPECT_EQ(fs.list("/pool/run1").size(), 2u);
  EXPECT_EQ(fs.list("/pool/").size(), 3u);
  EXPECT_EQ(fs.list().size(), 4u);
}

TEST(FileSystem, CrcDerivedFromSeedAndSize) {
  FileSystem fs;
  auto a = fs.create("/a", 1000, 42, 0);
  auto b = fs.create("/b", 1000, 42, 0);
  auto c = fs.create("/c", 1000, 43, 0);
  EXPECT_EQ(a->crc(), b->crc());
  EXPECT_NE(a->crc(), c->crc());
}

TEST(Disk, SerializesRequests) {
  sim::Simulator simulator;
  DiskConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte/us
  config.seek_latency = 1 * kMillisecond;
  Disk disk(simulator, config);
  SimTime first = 0, second = 0;
  disk.read(1000, [&] { first = simulator.now(); });
  disk.read(1000, [&] { second = simulator.now(); });
  simulator.run();
  EXPECT_EQ(first, 2 * kMillisecond);
  EXPECT_EQ(second, 4 * kMillisecond);
  EXPECT_EQ(disk.stats().operations, 2);
  EXPECT_EQ(disk.stats().bytes_moved, 2000);
}

// The tie rule of lazy runs (DESIGN.md "Lazy disk runs"): a run read issued
// at the same nanosecond as another request goes first, and stats() at that
// instant counts it, even where the other request's event was keyed before
// the run started. Reads take 2 ms each and the think time is 0.5 ms, so the
// run's second read is issued at 2.5 ms.
TEST(DiskRun, RunReadIssuedAtTheSameInstantGoesFirst) {
  sim::Simulator simulator;
  DiskConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte/us
  config.seek_latency = 1 * kMillisecond;
  Disk disk(simulator, config);
  constexpr SimTime kTie = 2500 * kMicrosecond;
  std::int64_t operations_at_tie = 0;
  SimTime other_done = 0;
  SimTime run_done = 0;
  simulator.schedule_at(kTie, [&] {
    operations_at_tie = disk.stats().operations;
    disk.read(1000, [&] { other_done = simulator.now(); });
  });
  disk.run({1000, 1000, 1000}, 500 * kMicrosecond,
           [&] { run_done = simulator.now(); });
  EXPECT_EQ(simulator.pending(), 2u);  // the tie event and the run's one
  simulator.run();
  EXPECT_EQ(operations_at_tie, 2);
  // Run read 2 takes [2.5, 4.5] ms, the other read [4.5, 6.5] ms, and run
  // read 3, issued at 5 ms, waits for it: [6.5, 8.5] ms, then 0.5 ms think.
  EXPECT_EQ(other_done, 6500 * kMicrosecond);
  EXPECT_EQ(run_done, 9 * kMillisecond);
  EXPECT_EQ(disk.stats().operations, 4);
  EXPECT_EQ(disk.stats().busy_time, 8 * kMillisecond);
  EXPECT_EQ(simulator.events_fired(), 3u);  // tie, other read, run
}

struct PoolFixture {
  sim::Simulator simulator;
  Disk disk{simulator, DiskConfig{}};
};

TEST(DiskPool, EvictsLruUnpinned) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  ASSERT_TRUE(pool.add_file("/a", 400, 1, 0).is_ok());
  ASSERT_TRUE(pool.add_file("/b", 400, 2, 1).is_ok());
  (void)pool.lookup("/a");  // /a becomes most recent; /b is LRU
  ASSERT_TRUE(pool.add_file("/c", 400, 3, 2).is_ok());
  EXPECT_TRUE(pool.contains("/a"));
  EXPECT_FALSE(pool.contains("/b"));
  EXPECT_TRUE(pool.contains("/c"));
  EXPECT_EQ(pool.stats().evictions, 1);
}

TEST(DiskPool, PinnedFilesSurviveEviction) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  ASSERT_TRUE(pool.add_file("/a", 400, 1, 0, /*pinned=*/true).is_ok());
  ASSERT_TRUE(pool.add_file("/b", 400, 2, 1).is_ok());
  ASSERT_TRUE(pool.add_file("/c", 400, 3, 2).is_ok());
  EXPECT_TRUE(pool.contains("/a"));
  EXPECT_FALSE(pool.contains("/b"));
}

TEST(DiskPool, FailsWhenEverythingPinned) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  ASSERT_TRUE(pool.add_file("/a", 600, 1, 0, /*pinned=*/true).is_ok());
  auto result = pool.add_file("/b", 600, 2, 1);
  EXPECT_EQ(result.code(), ErrorCode::kResourceExhausted);
}

TEST(DiskPool, ReservationHoldsSpace) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  ASSERT_TRUE(pool.reserve(600).is_ok());
  EXPECT_EQ(pool.free_bytes(), 400);
  EXPECT_EQ(pool.add_file("/a", 600, 1, 0).code(),
            ErrorCode::kResourceExhausted);
  pool.release_reservation(600);
  EXPECT_TRUE(pool.add_file("/a", 600, 1, 0).is_ok());
}

TEST(DiskPool, HitMissAccounting) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  (void)pool.add_file("/a", 100, 1, 0);
  (void)pool.lookup("/a");
  (void)pool.lookup("/a");
  (void)pool.lookup("/missing");
  EXPECT_EQ(pool.stats().hits, 2);
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST(DiskPool, SpaceGaugesFollowFailedAddThatEvicted) {
  // make_room can evict and still fail: adding 70 bytes evicts /a, then
  // finds /b pinned. The space gauges must show the pool as it is left.
  PoolFixture f;
  DiskPool pool(100, f.disk);
  obs::MetricsRegistry registry;
  pool.set_metrics(registry.scope("pool"));
  ASSERT_TRUE(pool.add_file("/a", 40, 1, 0).is_ok());
  ASSERT_TRUE(pool.add_file("/b", 40, 2, 1, /*pinned=*/true).is_ok());
  EXPECT_EQ(pool.add_file("/c", 70, 3, 2).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_FALSE(pool.contains("/a"));
  EXPECT_DOUBLE_EQ(registry.gauge("pool.used_bytes").value(), 40.0);
  EXPECT_DOUBLE_EQ(registry.gauge("pool.free_bytes").value(), 60.0);
}

TEST(DiskPool, FileLargerThanPoolRejected) {
  PoolFixture f;
  DiskPool pool(1000, f.disk);
  EXPECT_EQ(pool.add_file("/big", 2000, 1, 0).code(),
            ErrorCode::kResourceExhausted);
}

TEST(Mss, ArchiveThenStageRestoresFile) {
  PoolFixture f;
  DiskPool pool(10000, f.disk);
  MassStorageSystem mss(f.simulator, MssConfig{}, kHrmPlugin);
  FileInfo info;
  info.path = "/pool/run.0";
  info.size = 5000;
  info.content_seed = 77;
  bool archived = false;
  mss.archive(info, [&](Status s) { archived = s.is_ok(); });
  f.simulator.run();
  ASSERT_TRUE(archived);
  EXPECT_TRUE(mss.in_archive("/pool/run.0"));

  bool staged = false;
  mss.stage("/pool/run.0", pool, [&](Result<FileInfo> r) {
    staged = r.is_ok();
    if (r.is_ok()) {
      EXPECT_EQ(r->size, 5000);
      EXPECT_EQ(r->content_seed, 77u);
      EXPECT_TRUE(r->pinned);
    }
  });
  f.simulator.run();
  EXPECT_TRUE(staged);
  EXPECT_TRUE(pool.contains("/pool/run.0"));
}

TEST(Mss, StageUnknownFileFails) {
  PoolFixture f;
  DiskPool pool(10000, f.disk);
  MassStorageSystem mss(f.simulator, MssConfig{}, kHrmPlugin);
  Status status = Status::ok();
  mss.stage("/nope", pool, [&](Result<FileInfo> r) { status = r.status(); });
  f.simulator.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(Mss, StagingPaysMountAndTransferTime) {
  PoolFixture f;
  DiskPool pool(1 * kGiB, f.disk);
  MssConfig config;
  config.tape_drives = 1;
  config.mount_latency = 30 * kSecond;
  config.tape_bandwidth = 15 * 8 * kMbps;
  MassStorageSystem mss(f.simulator, config, kHrmPlugin);
  FileInfo info;
  info.path = "/f";
  info.size = 150 * kMiB;  // 10 s at 15 MB/s
  mss.archive(info, [](Status) {});
  f.simulator.run();
  const SimTime archive_done = f.simulator.now();
  SimTime staged_at = 0;
  mss.stage("/f", pool, [&](Result<FileInfo>) { staged_at = f.simulator.now(); });
  f.simulator.run();
  const double elapsed = to_seconds(staged_at - archive_done);
  EXPECT_NEAR(elapsed, 30.0 + 10.48, 0.5);
}

TEST(Mss, DrivesLimitParallelism) {
  PoolFixture f;
  DiskPool pool(1 * kGiB, f.disk);
  MssConfig config;
  config.tape_drives = 1;
  config.mount_latency = 10 * kSecond;
  MassStorageSystem mss(f.simulator, config, kHrmPlugin);
  for (int i = 0; i < 3; ++i) {
    FileInfo info;
    info.path = "/f" + std::to_string(i);
    info.size = 1000;
    mss.archive(info, [](Status) {});
  }
  f.simulator.run();
  std::vector<SimTime> stage_times;
  const SimTime t0 = f.simulator.now();
  for (int i = 0; i < 3; ++i) {
    mss.stage("/f" + std::to_string(i), pool, [&](Result<FileInfo>) {
      stage_times.push_back(f.simulator.now() - t0);
    });
  }
  f.simulator.run();
  ASSERT_EQ(stage_times.size(), 3u);
  // With one drive, stage completions are ~10 s apart.
  EXPECT_GT(stage_times[1] - stage_times[0], 9 * kSecond);
  EXPECT_GT(stage_times[2] - stage_times[1], 9 * kSecond);
  EXPECT_EQ(mss.stats().stages, 3);
}

TEST(Hrm, ScriptStagerSlowerThanHrm) {
  PoolFixture f;
  DiskPool pool(1 * kGiB, f.disk);
  MassStorageSystem hrm(f.simulator, MssConfig{}, kHrmPlugin);
  MassStorageSystem script(f.simulator, MssConfig{}, kScriptStagerPlugin);
  FileInfo info;
  info.path = "/f";
  info.size = 1000;
  hrm.archive(info, [](Status) {});
  script.archive(info, [](Status) {});
  f.simulator.run();

  SimTime hrm_done = 0, script_done = 0;
  const SimTime t0 = f.simulator.now();
  hrm.stage("/f", pool, [&](Result<FileInfo>) {
    hrm_done = f.simulator.now() - t0;
  });
  f.simulator.run();
  (void)pool.remove("/f");
  const SimTime t1 = f.simulator.now();
  script.stage("/f", pool, [&](Result<FileInfo>) {
    script_done = f.simulator.now() - t1;
  });
  f.simulator.run();
  EXPECT_GT(script_done, hrm_done);
  // Same drive work on idle drives: only the per-request cost differs.
  EXPECT_EQ(script_done - hrm_done,
            kScriptStagerPlugin.request_delay - kHrmPlugin.request_delay);
  EXPECT_STREQ(hrm.plugin_name(), "hrm");
  EXPECT_STREQ(script.plugin_name(), "script");
}

}  // namespace
}  // namespace gdmp::storage
