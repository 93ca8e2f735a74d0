// Tests for the replication scheduler: cost-aware source selection,
// bounded-concurrency queueing, retry/backoff, dead-lettering, and the
// server-side hooks it attaches to.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gdmp/replica_selection.h"
#include "obs/trace.h"
#include "sched/cost_selector.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::sched {
namespace {

using testbed::Grid;
using testbed::GridConfig;
using testbed::GridSiteSpec;
using testbed::Site;
using testbed::two_site_config;

std::vector<Uri> hosts(std::initializer_list<const char*> names) {
  std::vector<Uri> out;
  for (const char* name : names) {
    out.push_back(make_gsiftp_uri(name, "/pool/f"));
  }
  return out;
}

TEST(CostAwareSelector, RanksUnprobedFirstThenByEstimate) {
  CostAwareSelector selector(0.3);
  const auto candidates = hosts({"a", "b", "c"});
  selector.record_mbps("a", 10.0);
  selector.record_mbps("c", 40.0);
  // "b" is unprobed: it leads the ranking; measured hosts follow by
  // descending estimate.
  const auto order = selector.rank(candidates);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(candidates[order[0]].host, "b");
  EXPECT_EQ(candidates[order[1]].host, "c");
  EXPECT_EQ(candidates[order[2]].host, "a");
}

TEST(CostAwareSelector, PendingProbeRanksLast) {
  CostAwareSelector selector(0.3);
  const auto candidates = hosts({"slow", "fast"});
  selector.record_mbps("fast", 25.0);
  selector.note_probe("slow");
  // Probe dispatched but unresolved: "slow" must not attract more work.
  const auto order = selector.rank(candidates);
  EXPECT_EQ(candidates[order[0]].host, "fast");
  EXPECT_EQ(candidates[order[1]].host, "slow");
  EXPECT_FALSE(selector.measured("slow"));
  EXPECT_EQ(selector.estimate("slow"), -1.0);
}

TEST(CostAwareSelector, EwmaSmoothsAndFailureDecays) {
  CostAwareSelector selector(0.5);
  selector.record_mbps("h", 10.0);
  EXPECT_DOUBLE_EQ(selector.estimate("h"), 10.0);
  selector.record_mbps("h", 20.0);
  EXPECT_DOUBLE_EQ(selector.estimate("h"), 15.0);
  selector.record_failure("h");
  EXPECT_DOUBLE_EQ(selector.estimate("h"), 7.5);
  // A failed probe of a never-measured host floors it at 0 so it stops
  // being probe-priority but stays selectable as a last resort.
  selector.record_failure("fresh");
  EXPECT_TRUE(selector.measured("fresh"));
  EXPECT_DOUBLE_EQ(selector.estimate("fresh"), 0.0);
  EXPECT_EQ(selector.observations(), 2);
}

// ---------------------------------------------------------------------------
// Grid-level scheduler tests.

/// Seeds `count` identical flat files at every producer (same seed+size so
/// every copy has the same CRC), publishes them from producers[0], and
/// registers the extra producers as replica locations in the central
/// catalog.
std::vector<LogicalFileName> seed_flat_files(Grid& grid,
                                             std::vector<Site*> producers,
                                             int count, Bytes size) {
  std::vector<LogicalFileName> lfns;
  std::vector<core::PublishedFile> files;
  for (int i = 0; i < count; ++i) {
    const LogicalFileName lfn = "lfn://cms/flat/" + std::to_string(i);
    for (Site* producer : producers) {
      EXPECT_TRUE(producer->pool()
                      .add_file(producer->gdmp_server().local_path_for(lfn),
                                size, 0xF00Du + i, grid.simulator().now())
                      .is_ok());
    }
    core::PublishedFile file;
    file.lfn = lfn;
    files.push_back(file);
    lfns.push_back(lfn);
  }
  bool published = false;
  producers[0]->gdmp().publish(files, [&](Status status) {
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    published = true;
  });
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  EXPECT_TRUE(published);

  int pending = 0;
  for (std::size_t p = 1; p < producers.size(); ++p) {
    Site& site = *producers[p];
    for (const LogicalFileName& lfn : lfns) {
      ++pending;
      site.gdmp_server().catalog().add_replica(
          "cms", lfn, site.name(), site.gdmp_server().url_prefix(),
          [&](Status status) {
            EXPECT_TRUE(status.is_ok()) << status.to_string();
            --pending;
          });
    }
  }
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  EXPECT_EQ(pending, 0);
  return lfns;
}

GridConfig two_producer_config() {
  GridConfig config;
  GridSiteSpec fast{.name = "fast"};
  fast.wan.wan_bandwidth = 155 * kMbps;
  GridSiteSpec slow{.name = "slow"};
  slow.wan.wan_bandwidth = 10 * kMbps;
  GridSiteSpec consumer{.name = "lyon"};
  consumer.wan.wan_bandwidth = 155 * kMbps;
  config.sites = {fast, slow, consumer};
  config.event_count = 20000;
  return config;
}

TEST(ReplicationScheduler, BatchRespectsConcurrencyCaps) {
  GridConfig config = two_producer_config();
  config.sites[2].site.sched.max_concurrent = 4;
  config.sites[2].site.sched.max_per_source = 2;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  Site& consumer = grid.site(2);
  const auto lfns = seed_flat_files(
      grid, {&grid.site(0), &grid.site(1)}, 12, 2 * kMiB);

  Status batch_status = make_error(ErrorCode::kInternal, "pending");
  Bytes batch_bytes = 0;
  bool done = false;
  consumer.scheduler().submit_batch(lfns, 0, [&](Status status, Bytes bytes) {
    batch_status = status;
    batch_bytes = bytes;
    done = true;
  });

  int max_active = 0;
  int max_per_source = 0;
  const SimTime deadline = grid.simulator().now() + 1200 * kSecond;
  while (!done && grid.simulator().now() < deadline) {
    grid.run_until(grid.simulator().now() + 50 * kMillisecond);
    max_active = std::max(max_active, consumer.scheduler().active());
    for (const char* host : {"fast", "slow"}) {
      max_per_source =
          std::max(max_per_source, consumer.scheduler().in_flight_to(host));
    }
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(batch_status.is_ok()) << batch_status.to_string();
  EXPECT_EQ(batch_bytes, 12 * 2 * kMiB);
  EXPECT_LE(max_active, 4);
  EXPECT_LE(max_per_source, 2);
  // With 12 queued files the scheduler should actually use its slots.
  EXPECT_GE(consumer.scheduler().stats().peak_active, 3);
  EXPECT_EQ(consumer.scheduler().stats().completed, 12);
  EXPECT_EQ(consumer.gdmp_server().stats().files_replicated, 12);
  EXPECT_TRUE(consumer.scheduler().idle());
  EXPECT_TRUE(consumer.scheduler().dead_letters().empty());
}

TEST(ReplicationScheduler, CostSelectorPrefersFasterSourceAfterWarmup) {
  GridConfig config = two_producer_config();
  config.sites[2].site.sched.max_concurrent = 2;
  config.sites[2].site.sched.max_per_source = 2;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  Site& consumer = grid.site(2);
  const auto lfns = seed_flat_files(
      grid, {&grid.site(0), &grid.site(1)}, 16, 2 * kMiB);

  bool done = false;
  consumer.scheduler().submit_batch(lfns, 0, [&](Status status, Bytes) {
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    done = true;
  });
  grid.run_until(grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(done);

  const auto& by_source = consumer.scheduler().stats().completed_by_source;
  std::int64_t total = 0;
  for (const auto& [host, n] : by_source) total += n;
  ASSERT_EQ(total, 16);
  const auto fast = by_source.find("fast");
  ASSERT_NE(fast, by_source.end());
  // Both sources get probed, then history routes the bulk to the 155 Mbit/s
  // site (acceptance: >= 80% after warm-up).
  EXPECT_GE(fast->second, (total * 8) / 10)
      << "fast=" << fast->second << " of " << total;
  EXPECT_GT(consumer.scheduler().cost_selector().estimate("fast"),
            consumer.scheduler().cost_selector().estimate("slow"));
}

TEST(ReplicationScheduler, DirectPullsTakeTheFirstCatalogLocation) {
  // A pull outside the scheduler has no source chooser, so it takes the
  // first remote catalog location (GDMP 2.0, §4.2). The second pull stays
  // there although the cost ranking would now probe the unmeasured "slow":
  // the ranking serves only the scheduler's dispatches.
  Grid grid(two_producer_config());
  ASSERT_TRUE(grid.start().is_ok());
  Site& consumer = grid.site(2);
  const auto lfns = seed_flat_files(
      grid, {&grid.site(0), &grid.site(1)}, 2, 2 * kMiB);

  std::string first_location;
  consumer.gdmp_server().catalog().lookup(
      "cms", lfns[0], [&](Result<core::ReplicaInfo> info) {
        ASSERT_TRUE(info.is_ok()) << info.status().to_string();
        const auto remote =
            core::remote_candidates(info->locations, consumer.name());
        ASSERT_EQ(remote.size(), 2u);
        first_location = remote[0].host;
      });
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  ASSERT_EQ(first_location, "fast");

  std::vector<std::string> peers;
  obs::TransferChannel::Observer observer;
  observer.on_complete = [&](const obs::TransferSummary& summary) {
    peers.push_back(summary.peer);
  };
  const auto token =
      consumer.gdmp_server().transfer_channel().subscribe(std::move(observer));
  for (const LogicalFileName& lfn : lfns) {
    bool done = false;
    consumer.gdmp().get_file(lfn, [&](Result<gridftp::TransferResult> r) {
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      done = true;
    });
    grid.run_until(grid.simulator().now() + 600 * kSecond);
    ASSERT_TRUE(done) << lfn;
  }
  consumer.gdmp_server().transfer_channel().unsubscribe(token);
  EXPECT_EQ(peers, (std::vector<std::string>{"fast", "fast"}));
}

struct SchedTwoSiteFixture {
  Grid grid;

  explicit SchedTwoSiteFixture(GridConfig config = two_site_config())
      : grid(std::move(config)) {
    EXPECT_TRUE(grid.start().is_ok());
  }

  Site& producer() { return grid.site(0); }
  Site& consumer() { return grid.site(1); }

  std::vector<LogicalFileName> seed(int count, Bytes size = 2 * kMiB) {
    return seed_flat_files(grid, {&producer()}, count, size);
  }

  /// Runs in small ticks until `stop` returns true (or the deadline hits).
  void run_while(SimDuration budget, const std::function<bool()>& stop) {
    const SimTime deadline = grid.simulator().now() + budget;
    while (!stop() && grid.simulator().now() < deadline) {
      grid.run_until(grid.simulator().now() + 100 * kMillisecond);
    }
  }
};

TEST(ReplicationScheduler, PriorityOrdersDispatch) {
  GridConfig config = two_site_config();
  config.sites[1].site.sched.max_concurrent = 1;
  config.sites[1].site.sched.max_per_source = 1;
  SchedTwoSiteFixture f(config);
  const auto lfns = f.seed(4);

  std::vector<std::string> completion_order;
  const auto track = [&](const LogicalFileName& lfn) {
    return [&completion_order, lfn](Result<gridftp::TransferResult> result) {
      EXPECT_TRUE(result.is_ok()) << result.status().to_string();
      completion_order.push_back(lfn);
    };
  };
  // lfns[0] dispatches immediately; the rest queue behind it. The late
  // high-priority submission must jump the FIFO tail.
  f.consumer().scheduler().submit(lfns[0], 0, track(lfns[0]));
  f.consumer().scheduler().submit(lfns[1], 0, track(lfns[1]));
  f.consumer().scheduler().submit(lfns[2], 0, track(lfns[2]));
  f.consumer().scheduler().submit(lfns[3], 5, track(lfns[3]));

  f.run_while(1200 * kSecond, [&] { return completion_order.size() == 4; });
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], lfns[0]);
  EXPECT_EQ(completion_order[1], lfns[3]);
  EXPECT_EQ(completion_order[2], lfns[1]);
  EXPECT_EQ(completion_order[3], lfns[2]);
}

TEST(ReplicationScheduler, RetriesWithBackoffThenSucceeds) {
  GridConfig config = two_site_config();
  // Every block corrupted at the producer; the FTP client itself gets no
  // retry budget, so failure handling is entirely the scheduler's.
  config.sites[0].site.ftp.corrupt_probability = 1.0;
  config.sites[1].site.gdmp.transfer.max_attempts = 1;
  config.sites[1].site.sched.max_attempts = 6;
  config.sites[1].site.sched.initial_backoff = 2 * kSecond;
  config.sites[1].site.sched.max_backoff = 10 * kSecond;
  SchedTwoSiteFixture f(config);
  const auto lfns = f.seed(1);

  Result<gridftp::TransferResult> result =
      make_error(ErrorCode::kInternal, "pending");
  bool done = false;
  const SimTime submitted_at = f.grid.simulator().now();
  f.consumer().scheduler().submit(lfns[0], 0,
                                  [&](Result<gridftp::TransferResult> r) {
                                    result = std::move(r);
                                    done = true;
                                  });
  // Heal the link as soon as the first retry has been scheduled.
  f.run_while(600 * kSecond, [&] {
    if (f.consumer().scheduler().stats().retries >= 1) {
      f.producer().ftp_server().set_corrupt_probability(0.0);
      return true;
    }
    return false;
  });
  ASSERT_GE(f.consumer().scheduler().stats().retries, 1);
  f.run_while(600 * kSecond, [&] { return done; });

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(f.consumer().scheduler().dead_letters().empty());
  EXPECT_GE(f.consumer().scheduler().stats().retries, 1);
  EXPECT_EQ(f.consumer().gdmp_server().stats().files_replicated, 1);
  // The retry actually backed off: with 2 s initial backoff and 25% jitter
  // the redispatch cannot land sooner than 1.5 s after submission.
  EXPECT_GE(f.grid.simulator().now() - submitted_at, 1500 * kMillisecond);
}

TEST(ReplicationScheduler, DeadLettersAfterMaxAttempts) {
  GridConfig config = two_site_config();
  config.sites[0].site.ftp.corrupt_probability = 1.0;
  config.sites[1].site.gdmp.transfer.max_attempts = 1;
  config.sites[1].site.sched.max_attempts = 3;
  config.sites[1].site.sched.initial_backoff = 1 * kSecond;
  config.sites[1].site.sched.max_backoff = 4 * kSecond;
  SchedTwoSiteFixture f(config);
  const auto lfns = f.seed(1);

  Result<gridftp::TransferResult> result =
      make_error(ErrorCode::kInternal, "pending");
  bool done = false;
  f.consumer().scheduler().submit(lfns[0], 0,
                                  [&](Result<gridftp::TransferResult> r) {
                                    result = std::move(r);
                                    done = true;
                                  });
  f.run_while(1200 * kSecond, [&] { return done; });

  ASSERT_TRUE(done);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kCorrupted)
      << result.status().to_string();

  const auto& scheduler = f.consumer().scheduler();
  ASSERT_EQ(scheduler.dead_letters().size(), 1u);
  EXPECT_EQ(scheduler.dead_letters()[0].lfn, lfns[0]);
  EXPECT_EQ(scheduler.dead_letters()[0].attempts, 3);
  EXPECT_EQ(scheduler.stats().dead_lettered, 1);
  EXPECT_EQ(scheduler.stats().retries, 2);
  EXPECT_TRUE(scheduler.idle());

  EXPECT_EQ(f.consumer().gdmp_server().stats().files_replicated, 0);
}

TEST(ReplicationScheduler, NotificationsEnqueueThroughScheduler) {
  GridConfig config = two_site_config();
  config.sites[1].site.gdmp.auto_replicate_on_notify = true;
  config.sites[1].site.sched.max_concurrent = 2;
  SchedTwoSiteFixture f(config);

  bool subscribed = false;
  f.consumer().gdmp().subscribe(f.producer().host().id(), 2000,
                                [&](Status s) { subscribed = s.is_ok(); });
  f.grid.run_until(f.grid.simulator().now() + 30 * kSecond);
  ASSERT_TRUE(subscribed);

  const auto lfns = f.seed(4);
  f.run_while(1800 * kSecond, [&] {
    return f.consumer().gdmp_server().stats().files_replicated ==
           static_cast<std::int64_t>(lfns.size());
  });

  const auto& server_stats = f.consumer().gdmp_server().stats();
  EXPECT_EQ(server_stats.notifications_queued,
            static_cast<std::int64_t>(lfns.size()));
  EXPECT_EQ(server_stats.files_replicated,
            static_cast<std::int64_t>(lfns.size()));
  EXPECT_EQ(f.consumer().scheduler().stats().submitted,
            static_cast<std::int64_t>(lfns.size()));
  EXPECT_EQ(f.consumer().scheduler().stats().completed,
            static_cast<std::int64_t>(lfns.size()));
  for (const auto& lfn : lfns) {
    EXPECT_TRUE(f.consumer().pool().contains(
        f.consumer().gdmp_server().local_path_for(lfn)))
        << lfn;
  }
}

TEST(ReplicationScheduler, CancelPendingFiresAbortedAndSkipsTransfer) {
  GridConfig config = two_site_config();
  config.sites[1].site.sched.max_concurrent = 1;
  SchedTwoSiteFixture f(config);
  const auto lfns = f.seed(3);

  int completed = 0;
  Status cancelled_status = Status::ok();
  auto& scheduler = f.consumer().scheduler();
  const auto id0 = scheduler.submit(
      lfns[0], 0, [&](Result<gridftp::TransferResult> r) {
        EXPECT_TRUE(r.is_ok());
        ++completed;
      });
  scheduler.submit(lfns[1], 0, [&](Result<gridftp::TransferResult> r) {
    EXPECT_TRUE(r.is_ok());
    ++completed;
  });
  const auto id2 = scheduler.submit(
      lfns[2], 0,
      [&](Result<gridftp::TransferResult> r) { cancelled_status = r.status(); });

  // lfns[0] is already in flight: not cancellable. lfns[2] still queues.
  EXPECT_FALSE(scheduler.cancel(id0));
  EXPECT_TRUE(scheduler.cancel(id2));
  EXPECT_EQ(cancelled_status.code(), ErrorCode::kAborted);
  EXPECT_FALSE(scheduler.cancel(id2));  // already gone

  f.run_while(1200 * kSecond, [&] { return completed == 2; });
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(scheduler.stats().cancelled, 1);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_FALSE(f.consumer().pool().contains(
      f.consumer().gdmp_server().local_path_for(lfns[2])));
}

// Regression: a chooser returning an out-of-range index must be clamped
// (previous behaviour reduced it modulo the candidate count; a buggy
// chooser could silently reroute transfers).
TEST(ReplicationScheduler, OutOfRangeSelectorFallsBackToFirstCandidate) {
  SchedTwoSiteFixture f;
  const auto lfns = f.seed(1);

  core::GdmpServer::ReplicateOptions options;
  options.choose_source =
      [](const std::vector<Uri>&) -> Result<std::size_t> {
    return std::size_t{999};
  };
  Result<gridftp::TransferResult> result =
      make_error(ErrorCode::kInternal, "pending");
  bool done = false;
  f.consumer().gdmp_server().replicate(
      lfns[0], std::move(options), [&](Result<gridftp::TransferResult> r) {
        result = std::move(r);
        done = true;
      });
  f.run_while(1200 * kSecond, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(f.consumer().pool().contains(
      f.consumer().gdmp_server().local_path_for(lfns[0])));
}

TEST(ReplicationScheduler, FetchCatalogFromStoppedProducerFailsCleanly) {
  SchedTwoSiteFixture f;
  (void)f.seed(2);

  f.producer().gdmp_server().stop();
  bool called = false;
  Result<std::vector<core::PublishedFile>> fetched =
      make_error(ErrorCode::kInternal, "pending");
  f.consumer().gdmp().missing_from(
      f.producer().host().id(), 2000,
      [&](Result<std::vector<core::PublishedFile>> r) {
        called = true;
        fetched = std::move(r);
      });
  f.run_while(300 * kSecond, [&] { return called; });
  // A dead producer yields a prompt error, not a hang.
  ASSERT_TRUE(called);
  EXPECT_FALSE(fetched.is_ok());
}

TEST(ReplicationScheduler, BulkWorkloadHelpersRoundTrip) {
  GridConfig config = two_site_config();
  config.sites[1].site.sched.max_concurrent = 4;
  SchedTwoSiteFixture f(config);

  testbed::BulkProductionConfig bulk;
  bulk.events_per_run = 1000;
  bulk.runs = 2;
  const auto files = testbed::bulk_produce(f.producer(), bulk);
  ASSERT_FALSE(files.empty());
  f.grid.run_until(f.grid.simulator().now() + 120 * kSecond);

  Status status = make_error(ErrorCode::kInternal, "pending");
  Bytes moved = 0;
  bool done = false;
  testbed::schedule_bulk_replication(f.consumer(), files, 1,
                                     [&](Status s, Bytes bytes) {
                                       status = s;
                                       moved = bytes;
                                       done = true;
                                     });
  f.run_while(3600 * kSecond, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_GT(moved, 0);
  EXPECT_EQ(f.consumer().gdmp_server().stats().files_replicated,
            static_cast<std::int64_t>(files.size()));
}

// ---------------------------------------------------------------------------
// Busy refusals: a batch whose caps keep every source saturated.

/// Two producers ("fast" 155 Mbit/s, "slow" 10 Mbit/s uplinks) and a
/// consumer capped at 4 concurrent / 1 per source: at most two transfers
/// are ever in flight, so every other dispatch finds both sources at their
/// cap and parks. `cache_ttl` is the consumer's lookup-cache TTL; files
/// listed in `already_local` are on the consumer's disk before the batch.
struct CappedBatch {
  static constexpr int kFiles = 24;
  static constexpr Bytes kFileSize = 1 * kMiB;

  // What the completion callbacks write is declared before the grid, so a
  // request still queued when the grid's scheduler aborts it writes into
  // live members.
  /// Per file: sim time from batch submission to its completion callback.
  std::vector<SimDuration> completed_after =
      std::vector<SimDuration>(kFiles, -1);
  /// Completion callbacks run so far.
  int settled = 0;
  Grid grid;
  std::vector<LogicalFileName> lfns;
  /// Central catalog operations served while the batch ran.
  std::int64_t catalog_ops = 0;
  core::CatalogClient::LookupCache::Stats cache_before;

  CappedBatch(SimDuration cache_ttl, std::vector<int> already_local)
      : grid(config(cache_ttl)) {
    EXPECT_TRUE(grid.start().is_ok());
    lfns = seed_flat_files(grid, {&grid.site(0), &grid.site(1)}, kFiles,
                           kFileSize);
    for (const int i : already_local) {
      EXPECT_TRUE(consumer()
                      .pool()
                      .add_file(consumer().gdmp_server().local_path_for(
                                    lfns[static_cast<std::size_t>(i)]),
                                kFileSize, 0xF00Du + i,
                                grid.simulator().now())
                      .is_ok());
    }
  }

  static GridConfig config(SimDuration cache_ttl) {
    GridConfig config = two_producer_config();
    config.sites[2].site.sched.max_concurrent = 4;
    config.sites[2].site.sched.max_per_source = 1;
    config.sites[2].site.gdmp.catalog_cache_ttl = cache_ttl;
    return config;
  }

  Site& consumer() { return grid.site(2); }
  const SchedulerStats& stats() { return consumer().scheduler().stats(); }

  /// Submits the whole batch and runs until every file has settled.
  void run() {
    cache_before = consumer().gdmp_server().catalog().lookup_cache_stats();
    const std::int64_t ops_before = grid.catalog().operations_served();
    const SimTime start = grid.simulator().now();
    // Warm the lookup cache the way submit_batch does, then submit file by
    // file to time each completion.
    auto& server = consumer().gdmp_server();
    server.catalog().lookup_batch_refs(
        server.config().collection, lfns,
        [&, start](Status, std::vector<Result<const core::ReplicaInfo*>>) {
          for (std::size_t i = 0; i < lfns.size(); ++i) {
            consumer().scheduler().submit(
                lfns[i], 0,
                [&, i, start](Result<gridftp::TransferResult> result) {
                  EXPECT_TRUE(result.is_ok() ||
                              result.code() == ErrorCode::kAlreadyExists)
                      << result.status().to_string();
                  completed_after[i] = grid.simulator().now() - start;
                  ++settled;
                });
          }
        });
    const SimTime deadline = start + 3600 * kSecond;
    while (settled < kFiles && grid.simulator().now() < deadline) {
      grid.run_until(grid.simulator().now() + kSecond);
    }
    EXPECT_EQ(settled, kFiles);
    catalog_ops = grid.catalog().operations_served() - ops_before;
  }
};

TEST(ReplicationScheduler, RefusalTimelineIsPinned) {
  // Golden outcomes of a saturated batch: a 5 s lookup TTL is shorter than
  // the queue wait, so parked requests go stale and revalidate over RPC
  // before they can be refused again, while files 5 and 17 are already on
  // site and complete on their first dispatch even with both sources busy.
  // Every figure here was captured before busy refusals were decided in
  // the scheduler; deciding them there must not move a single event.
  CappedBatch batch(5 * kSecond, {5, 17});
  batch.run();

  const std::vector<SimDuration> expected_ns = {
      8016780341,  8043399414,  15281321609, 15307641635, 22545862877,
      379306188,   22572182903, 29810404145, 29836724171, 37074945413,
      37101268086, 44339487212, 44365809484, 51604029011, 51630351283,
      58868570810, 58894893082, 379306188,   66133112609, 66159434881,
      73397654408, 73423976680, 80662196207, 80688518479,
  };
  EXPECT_EQ(batch.completed_after, expected_ns);
  const std::map<std::string, std::int64_t> expected_by_source = {
      {"fast", 11}, {"slow", 11}};
  EXPECT_EQ(batch.stats().completed_by_source, expected_by_source);
  EXPECT_EQ(batch.stats().busy_deferrals, 127);
  EXPECT_EQ(batch.stats().retries, 0);
  EXPECT_EQ(batch.catalog_ops, 133);
}

TEST(ReplicationScheduler, BusyDeferralsReachMetricsRegistry) {
  // Both refusal points count: the stale TTL sends some refusals through a
  // catalog round trip, the rest are decided from the fresh cache entry.
  CappedBatch batch(5 * kSecond, {});
  batch.run();
  ASSERT_GT(batch.stats().busy_deferrals, 0);
  EXPECT_EQ(batch.consumer()
                .metrics()
                .counter("site." + batch.consumer().name() +
                         ".sched.busy_deferrals")
                .value(),
            batch.stats().busy_deferrals);
}

TEST(ReplicationScheduler, FreshRefusalSkipsReplicate) {
  // With a TTL longer than the whole batch every lookup is a fresh hit, so
  // each replicate() call shows up as exactly one hit. A refusal decided
  // from the fresh entry must not call replicate() (nor count a hit): only
  // the real dispatches, one per file, do.
  CappedBatch batch(3600 * kSecond, {});
  batch.run();
  ASSERT_GT(batch.stats().busy_deferrals, 0);
  const auto& after =
      batch.consumer().gdmp_server().catalog().lookup_cache_stats();
  EXPECT_EQ(after.stale_probes, batch.cache_before.stale_probes);
  EXPECT_EQ(after.hits - batch.cache_before.hits, batch.stats().completed);
  EXPECT_EQ(batch.stats().completed, CappedBatch::kFiles);
}


// ---------------------------------------------------------------------------
// Wake-rule goldens: saturated queues with scripted mid-run events.

/// A consumer ("lyon", fluid model) replicating a batch from up to three
/// producers under tight caps while a script mutates the catalog, the
/// consumer's pool and the queue at fixed sim times. Every parked request
/// can turn dispatchable in four ways — a slot frees on one of its hosts,
/// its cache entry's TTL passes, the entry changes, or the file lands in
/// the pool — so the scripts below cover each of them, and the goldens pin
/// the exact outcome of every request.
struct WakeScenario {
  static constexpr const char* kProducers[] = {"fast", "mid", "slow"};

  struct Spec {
    int files = 24;
    /// Producer indices (into kProducers) holding file i; the first
    /// publishes it and the others register as extra replicas.
    std::function<std::vector<int>(int)> holders;
    int max_concurrent = 4;
    int max_per_source = 1;
    SimDuration cache_ttl = 5 * kSecond;
    /// Wire corruption at "fast", so some attempts fail and retry.
    double corrupt_probability = 0;
    std::function<int(int)> priority = [](int) { return 0; };
    /// Files already on the consumer's disk before the batch.
    std::vector<int> already_local;
  };

  Spec spec;
  // Declared before the grid, as in CappedBatch: the completion callbacks
  // write here, also for requests the grid's scheduler aborts.
  /// Per file: sim time from submission to its completion callback.
  std::vector<SimDuration> completed_after;
  std::vector<ErrorCode> outcome;
  int settled = 0;
  SimTime start = 0;
  Grid grid;
  std::vector<LogicalFileName> lfns;
  std::vector<std::uint64_t> ids;
  std::int64_t catalog_ops = 0;

  explicit WakeScenario(Spec s) : spec(std::move(s)), grid(config(spec)) {
    EXPECT_TRUE(grid.start().is_ok());
    completed_after.assign(static_cast<std::size_t>(spec.files), -1);
    outcome.assign(static_cast<std::size_t>(spec.files), ErrorCode::kOk);
    seed();
  }

  static GridConfig config(const Spec& spec) {
    GridConfig config;
    for (const char* name : kProducers) {
      GridSiteSpec producer{.name = name};
      config.sites.push_back(producer);
    }
    config.sites[0].wan.wan_bandwidth = 155 * kMbps;
    config.sites[1].wan.wan_bandwidth = 45 * kMbps;
    config.sites[2].wan.wan_bandwidth = 10 * kMbps;
    config.sites[0].site.ftp.corrupt_probability = spec.corrupt_probability;
    GridSiteSpec consumer{.name = "lyon"};
    consumer.wan.wan_bandwidth = 622 * kMbps;
    consumer.site.sched.max_concurrent = spec.max_concurrent;
    consumer.site.sched.max_per_source = spec.max_per_source;
    consumer.site.gdmp.catalog_cache_ttl = spec.cache_ttl;
    config.sites.push_back(consumer);
    config.event_count = 20000;
    config.transfer_model = flow::TransferModel::kFluid;
    return config;
  }

  Site& producer(int p) { return grid.site(static_cast<std::size_t>(p)); }
  Site& consumer() { return grid.site(3); }
  ReplicationScheduler& scheduler() { return consumer().scheduler(); }
  const SchedulerStats& stats() { return scheduler().stats(); }
  std::string path(int i) {
    return consumer().gdmp_server().local_path_for(
        lfns[static_cast<std::size_t>(i)]);
  }

  void seed() {
    std::vector<std::vector<core::PublishedFile>> published(3);
    for (int i = 0; i < spec.files; ++i) {
      const LogicalFileName lfn = "lfn://cms/wake/" + std::to_string(i);
      lfns.push_back(lfn);
      const std::vector<int> at = spec.holders(i);
      for (const int p : at) {
        EXPECT_TRUE(producer(p)
                        .pool()
                        .add_file(producer(p).gdmp_server().local_path_for(lfn),
                                  kMiB, 0xA11Cu + i, grid.simulator().now())
                        .is_ok());
      }
      core::PublishedFile file;
      file.lfn = lfn;
      published[static_cast<std::size_t>(at.front())].push_back(file);
    }
    for (int p = 0; p < 3; ++p) {
      if (published[static_cast<std::size_t>(p)].empty()) continue;
      producer(p).gdmp().publish(published[static_cast<std::size_t>(p)],
                                 [](Status status) {
                                   EXPECT_TRUE(status.is_ok())
                                       << status.to_string();
                                 });
    }
    grid.run_until(grid.simulator().now() + 120 * kSecond);
    for (int i = 0; i < spec.files; ++i) {
      const std::vector<int> at = spec.holders(i);
      for (std::size_t k = 1; k < at.size(); ++k) register_at(at[k], i);
    }
    grid.run_until(grid.simulator().now() + 120 * kSecond);
    for (const int i : spec.already_local) {
      EXPECT_TRUE(consumer()
                      .pool()
                      .add_file(path(i), kMiB, 0xA11Cu + i,
                                grid.simulator().now())
                      .is_ok());
    }
  }

  /// Registers producer `p`'s copy of file `i` in the central catalog (a
  /// remote write the consumer sees on its next revalidation).
  void register_at(int p, int i) {
    Site& site = producer(p);
    site.gdmp_server().catalog().add_replica(
        "cms", lfns[static_cast<std::size_t>(i)], site.name(),
        site.gdmp_server().url_prefix(), [](Status status) {
          EXPECT_TRUE(status.is_ok()) << status.to_string();
        });
  }

  /// Warms the lookup cache the way submit_batch does, submits every file,
  /// then runs the script — (offset from submission, action) pairs in time
  /// order — and the grid until every request has settled.
  void run(std::vector<std::pair<SimDuration, std::function<void()>>> script) {
    const std::int64_t ops_before = grid.catalog().operations_served();
    start = grid.simulator().now();
    auto& server = consumer().gdmp_server();
    server.catalog().lookup_batch_refs(
        server.config().collection, lfns,
        [&](Status, std::vector<Result<const core::ReplicaInfo*>>) {
          for (int i = 0; i < spec.files; ++i) {
            const auto at = static_cast<std::size_t>(i);
            ids.push_back(scheduler().submit(
                lfns[at], spec.priority(i),
                [this, at](Result<gridftp::TransferResult> result) {
                  completed_after[at] = grid.simulator().now() - start;
                  outcome[at] = result.code();
                  ++settled;
                }));
          }
        });
    for (auto& [offset, action] : script) {
      grid.run_until(start + offset);
      action();
    }
    const SimTime deadline = start + 3600 * kSecond;
    while (settled < spec.files && grid.simulator().now() < deadline) {
      grid.run_until(grid.simulator().now() + kSecond);
    }
    EXPECT_EQ(settled, spec.files);
    EXPECT_TRUE(scheduler().idle());
    catalog_ops = grid.catalog().operations_served() - ops_before;
  }
};

/// Three hosts at one transfer each under a global cap of 3, 36 files:
/// most sit at "fast", "slow" or both, every sixth only at "mid", and
/// every fifth is submitted at priority 1.
WakeScenario::Spec three_host_spec() {
  WakeScenario::Spec spec;
  spec.files = 36;
  spec.holders = [](int i) -> std::vector<int> {
    switch (i % 6) {
      case 0: case 3: return {0};
      case 1: return {2};
      case 5: return {1};
      default: return {0, 2};
    }
  };
  spec.max_concurrent = 3;
  spec.max_per_source = 1;
  spec.priority = [](int i) { return i % 5 == 4 ? 1 : 0; };
  return spec;
}

TEST(ReplicationScheduler, WakeGoldenSlotsTtlBouncesAndWalkStops) {
  // A freed slot on one host wakes only that host's parked requests;
  // dispatching a "mid" file fills the global cap and stops the walk with
  // requests still unvisited behind it; the 5 s TTL expires under parked
  // requests, which then revalidate and busy-bounce; priority-1 files jump
  // the queue; and files 9 and 22 are on site already and complete inside
  // a walk.
  WakeScenario::Spec spec = three_host_spec();
  spec.already_local = {9, 22};
  WakeScenario s(spec);
  s.run({});

  const std::vector<SimDuration> expected_ns = {
      7009626341, 12636844546, 30405298831, 36409660178,
      13141493198, 7009799584, 46397486786, 42036878383,
      48041959195, 7009799584, 53668583871, 29516918024,
      68904780163, 57651431094, 18769433430, 75036647338,
      65313364761, 40770862324, 81168514513, 35144137923,
      71318448104, 87300381688, 41918412162, 52024211195,
      23890193623, 77323531447, 83328614790, 93432248863,
      89333698133, 18263568955, 99564116038, 95338781476,
      101343864819, 59686144862, 24778674369, 63278155495,
  };
  EXPECT_EQ(s.completed_after, expected_ns);
  const std::map<std::string, std::int64_t> expected_by_source = {
      {"fast", 14}, {"mid", 6}, {"slow", 14}};
  EXPECT_EQ(s.stats().completed_by_source, expected_by_source);
  EXPECT_EQ(s.stats().busy_deferrals, 147);
  EXPECT_EQ(s.stats().dispatched, 118);
  EXPECT_EQ(s.stats().retries, 0);
  EXPECT_EQ(s.catalog_ops, 138);
}

TEST(ReplicationScheduler, WakeGoldenInvalidationPoolAddCancelRetries) {
  // A TTL longer than the run keeps every parked entry fresh, so only the
  // scripted events and freed slots can wake a parked request: the
  // consumer's own catalog write drops file 15's entry, file 18 lands in
  // the consumer's pool without a transfer, file 20 is cancelled while
  // parked, and wire corruption at "fast" sends attempts to retry.
  WakeScenario::Spec spec;
  spec.holders = [](int) -> std::vector<int> { return {0, 2}; };
  spec.max_concurrent = 4;
  spec.max_per_source = 1;
  spec.cache_ttl = 3600 * kSecond;
  spec.corrupt_probability = 0.3;
  WakeScenario s(spec);
  bool cancelled = false;
  s.run({
      {2 * kSecond,
       [&] {
         s.consumer().gdmp_server().catalog().remove_replica(
             "cms", s.lfns[15], "slow", [](Status status) {
               EXPECT_TRUE(status.is_ok()) << status.to_string();
             });
       }},
      {3 * kSecond,
       [&] {
         ASSERT_EQ(s.completed_after[18], -1);
         EXPECT_TRUE(s.consumer()
                         .pool()
                         .add_file(s.path(18), kMiB, 0xA11Cu + 18,
                                   s.grid.simulator().now())
                         .is_ok());
       }},
      {4 * kSecond, [&] { cancelled = s.scheduler().cancel(s.ids[20]); }},
  });
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(s.outcome[18], ErrorCode::kAlreadyExists);
  EXPECT_EQ(s.outcome[20], ErrorCode::kAborted);

  const std::vector<SimDuration> expected_ns = {
      6883884007, 6884913332, 12888245354, 12889994144,
      18892606701, 18895074956, 24896968048, 24900155768,
      30901329395, 30905236580, 46657643961, 36910319923,
      42915403266, 48920486609, 72940819981, 68290799103,
      54925569952, 60930653295, 6883884007, 66935736638,
      4000000000, 74295160737, 78945903324, 80299522371,
  };
  EXPECT_EQ(s.completed_after, expected_ns);
  const std::map<std::string, std::int64_t> expected_by_source = {
      {"fast", 9}, {"slow", 13}};
  EXPECT_EQ(s.stats().completed_by_source, expected_by_source);
  EXPECT_EQ(s.stats().busy_deferrals, 229);
  EXPECT_EQ(s.stats().dispatched, 25);
  EXPECT_EQ(s.stats().retries, 1);
  EXPECT_EQ(s.catalog_ops, 25);
}

TEST(ReplicationScheduler, WakeGoldenRemoteRegistrationAndPrefetch) {
  // Every file starts at "fast" only, and no transfer settles before the
  // first one at ~6.9 s. At 1 s "slow" registers copies of files 10-19; at
  // 5.5 s, after the 5 s TTL has expired under every parked request but
  // before any release, a batch prefetch revalidates their entries, so
  // those parked requests find their entry replaced under a new stamp
  // that names a second host.
  WakeScenario::Spec spec;
  spec.holders = [](int) -> std::vector<int> { return {0}; };
  spec.max_concurrent = 4;
  spec.max_per_source = 2;
  WakeScenario s(spec);
  std::vector<LogicalFileName> late(s.lfns.begin() + 10, s.lfns.begin() + 20);
  for (int i = 10; i < 20; ++i) {
    EXPECT_TRUE(s.producer(2)
                    .pool()
                    .add_file(s.producer(2).gdmp_server().local_path_for(
                                  s.lfns[static_cast<std::size_t>(i)]),
                              kMiB, 0xA11Cu + i, s.grid.simulator().now())
                    .is_ok());
  }
  s.run({
      {1 * kSecond,
       [&] {
         for (int i = 10; i < 20; ++i) s.register_at(2, i);
       }},
      {5500 * kMillisecond,
       [&] {
         auto& catalog = s.consumer().gdmp_server().catalog();
         catalog.lookup_batch_refs(
             "cms", late,
             [](Status, std::vector<Result<const core::ReplicaInfo*>>) {});
       }},
  });

  const std::vector<SimDuration> expected_ns = {
      6883870161, 6883879812, 13015737018, 13015746669,
      24269581387, 24269730987, 35523425756, 35523575356,
      46777270125, 46777419725, 18642956925, 18643106525,
      29896801294, 29896950894, 41150645663, 41150795263,
      52404490032, 52404639632, 58031114700, 58031264300,
      64162981875, 64162991526, 70294849050, 70294858701,
  };
  EXPECT_EQ(s.completed_after, expected_ns);
  const std::map<std::string, std::int64_t> expected_by_source = {
      {"fast", 16}, {"slow", 8}};
  EXPECT_EQ(s.stats().completed_by_source, expected_by_source);
  EXPECT_EQ(s.stats().busy_deferrals, 40);
  EXPECT_EQ(s.stats().dispatched, 42);
  EXPECT_EQ(s.stats().retries, 0);
  EXPECT_EQ(s.catalog_ops, 74);
}

TEST(ReplicationScheduler, RequestsSubmittedBeforeTracingStartsStayUntraced) {
  // Tracing starts at 20 s, while requests submitted untraced wait. A
  // request's queue spans nest under its own "sched.request" span, so
  // these requests stay untraced to the end, while the replicate() calls
  // made after 20 s are traced. The walk is the one
  // WakeGoldenSlotsTtlBouncesAndWalkStops pins, with the same counts.
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  std::size_t sched_spans = 0;
  std::size_t replicate_spans = 0;
  {
    WakeScenario::Spec spec = three_host_spec();
    spec.already_local = {9, 22};
    WakeScenario s(spec);
    s.run({{20 * kSecond, [&] {
              tracer.set_clock([&s] { return s.grid.simulator().now(); });
              tracer.enable(true);
            }}});
    tracer.enable(false);
    for (const obs::Span& span : tracer.spans()) {
      if (span.name.starts_with("sched.")) ++sched_spans;
      if (span.name == "gdmp.replicate") ++replicate_spans;
    }
    EXPECT_EQ(s.stats().busy_deferrals, 147);
    EXPECT_EQ(s.stats().dispatched, 118);
  }
  tracer.set_clock(nullptr);
  tracer.clear();
  EXPECT_EQ(sched_spans, 0u);
  EXPECT_GE(replicate_spans, 1u);
}

TEST(ReplicationScheduler, DeepQueueCountsArePinned) {
  // bench_scheduler's deep_queue shape: 800 x 1 MiB files from one
  // producer queued at a consumer capped at 4 concurrent / 2 per source
  // under the fluid model. Its work counts are gated exactly in
  // bench/baselines/scheduler.json; they must not depend on how the
  // scheduler finds the next dispatchable request.
  GridConfig config;
  GridSiteSpec producer{.name = "cern"};
  producer.wan.wan_bandwidth = 155 * kMbps;
  GridSiteSpec consumer{.name = "lyon"};
  consumer.wan.wan_bandwidth = 622 * kMbps;
  config.sites = {producer, consumer};
  config.event_count = 1000;
  config.transfer_model = flow::TransferModel::kFluid;
  config.sites[1].site.sched.max_concurrent = 4;
  config.sites[1].site.sched.max_per_source = 2;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());

  std::vector<core::PublishedFile> files;
  std::vector<LogicalFileName> lfns;
  for (int i = 0; i < 800; ++i) {
    const LogicalFileName lfn = "lfn://cms/deep/" + std::to_string(i);
    ASSERT_TRUE(grid.site(0)
                    .pool()
                    .add_file(grid.site(0).gdmp_server().local_path_for(lfn),
                              kMiB, 0xdee9u + i, 0)
                    .is_ok());
    core::PublishedFile file;
    file.lfn = lfn;
    files.push_back(file);
    lfns.push_back(lfn);
  }
  bool published = false;
  grid.site(0).gdmp().publish(files,
                              [&](Status s) { published = s.is_ok(); });
  grid.run_until(grid.simulator().now() + 240 * kSecond);
  ASSERT_TRUE(published);

  auto& scheduler = grid.site(1).scheduler();
  bool done = false;
  scheduler.submit_batch(lfns, 0,
                         [&](Status status, Bytes) { done = status.is_ok(); });
  grid.run_until(grid.simulator().now() + 8 * 3600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(scheduler.stats().completed, 800);
  EXPECT_EQ(scheduler.stats().busy_deferrals, 258990);
  EXPECT_EQ(scheduler.stats().dispatched, 8020);
}

}  // namespace
}  // namespace gdmp::sched
