// Tests for object replication: selections, global index, full cycle.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "objrep/global_index.h"
#include "objrep/replicator.h"
#include "objrep/selection.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::objrep {
namespace {

using objstore::EventModel;
using objstore::Tier;
using objstore::make_object_id;
using testbed::Grid;
using testbed::GridConfig;
using testbed::Site;
using testbed::two_site_config;

TEST(Selection, FractionRespected) {
  const EventModel model = EventModel::standard(10000);
  Rng rng(1);
  SelectionConfig config;
  config.fraction = 0.01;
  const auto objects = select_objects(model, config, rng);
  EXPECT_EQ(objects.size(), 100u);
  for (const ObjectId id : objects) {
    EXPECT_EQ(objstore::tier_of(id), Tier::kAod);
  }
  // Sorted and unique by construction.
  for (std::size_t i = 1; i < objects.size(); ++i) {
    EXPECT_LT(objects[i - 1].value, objects[i].value);
  }
}

TEST(Selection, SparseSelectionTouchesNearlyAllFiles) {
  // The §5.1 argument: a fresh sparse selection hits almost every file.
  const EventModel model = EventModel::standard(100000);
  objstore::ObjectFileCatalog catalog;
  const std::int64_t per_file = model.tier(Tier::kAod).objects_per_file;
  for (std::int64_t lo = 0; lo < 100000; lo += per_file) {
    (void)catalog.add_range_file("/f" + std::to_string(lo / per_file),
                                 Tier::kAod, lo, lo + per_file, model);
  }
  Rng rng(2);
  SelectionConfig config;
  config.fraction = 1e-2;  // 1000 of 100k events, 2000 events/file
  const auto objects = select_objects(model, config, rng);
  const auto cover = files_covering(catalog, model, objects);
  // Selection payload is tiny compared to the files it touches.
  const Bytes payload = selection_bytes(model, objects);
  EXPECT_GT(cover.total_bytes, payload * 20);
  EXPECT_GT(cover.files.size(), 35u);  // of 50 files
}

TEST(Selection, ClusteredSelectionTouchesFewerFiles) {
  const EventModel model = EventModel::standard(100000);
  objstore::ObjectFileCatalog catalog;
  const std::int64_t per_file = model.tier(Tier::kAod).objects_per_file;
  for (std::int64_t lo = 0; lo < 100000; lo += per_file) {
    (void)catalog.add_range_file("/f" + std::to_string(lo / per_file),
                                 Tier::kAod, lo, lo + per_file, model);
  }
  Rng rng_a(3), rng_b(3);
  SelectionConfig sparse;
  sparse.fraction = 1e-2;
  SelectionConfig clustered = sparse;
  clustered.clustering = 1.0;
  const auto cover_sparse =
      files_covering(catalog, model, select_objects(model, sparse, rng_a));
  const auto cover_clustered = files_covering(
      catalog, model, select_objects(model, clustered, rng_b));
  EXPECT_LT(cover_clustered.files.size(), cover_sparse.files.size());
}

TEST(Selection, FunnelShrinksAndGrowsTiers) {
  const EventModel model = EventModel::standard(50000);
  Rng rng(4);
  const auto steps = analysis_funnel(
      model,
      {{0.1, Tier::kTag}, {0.1, Tier::kAod}, {0.1, Tier::kEsd}}, rng);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_GT(steps[0].size(), steps[1].size());
  EXPECT_GT(steps[1].size(), steps[2].size());
  EXPECT_EQ(objstore::tier_of(steps[2].front()), Tier::kEsd);
}

TEST(GlobalIndex, SnapshotRoundTripsRangesAndPacked) {
  const EventModel model = EventModel::standard(10000);
  objstore::ObjectFileCatalog catalog;
  (void)catalog.add_range_file("/r", Tier::kAod, 0, 5000, model);
  (void)catalog.add_packed_file(
      "/p", {make_object_id(Tier::kEsd, 3), make_object_id(Tier::kEsd, 999)},
      model);
  const IndexSnapshot snapshot = snapshot_catalog(catalog, 7);
  rpc::Writer w;
  encode_snapshot(w, snapshot);
  const auto buffer = w.take();
  rpc::Reader r(buffer);
  const IndexSnapshot decoded = decode_snapshot(r);
  EXPECT_EQ(decoded.generation, 7u);
  ASSERT_EQ(decoded.ranges.size(), 1u);
  EXPECT_EQ(decoded.ranges[0].event_hi, 5000);
  ASSERT_EQ(decoded.packed.size(), 1u);
  EXPECT_EQ(decoded.packed[0].objects.size(), 2u);
}

TEST(GlobalIndex, LocateAcrossSites) {
  const EventModel model = EventModel::standard(10000);
  GlobalObjectIndex index;
  objstore::ObjectFileCatalog cern;
  (void)cern.add_range_file("/a", Tier::kAod, 0, 5000, model);
  objstore::ObjectFileCatalog anl;
  (void)anl.add_range_file("/b", Tier::kAod, 2500, 7500, model);
  index.update_site("cern", snapshot_catalog(cern, 1));
  index.update_site("anl", snapshot_catalog(anl, 1));

  EXPECT_EQ(index.locate(make_object_id(Tier::kAod, 100)).size(), 1u);
  EXPECT_EQ(index.locate(make_object_id(Tier::kAod, 3000)).size(), 2u);
  EXPECT_EQ(index.locate(make_object_id(Tier::kAod, 9000)).size(), 0u);
}

TEST(GlobalIndex, PlanPrefersSiteCoveringMost) {
  const EventModel model = EventModel::standard(10000);
  GlobalObjectIndex index;
  objstore::ObjectFileCatalog big;
  (void)big.add_range_file("/all", Tier::kAod, 0, 10000, model);
  objstore::ObjectFileCatalog small;
  (void)small.add_range_file("/some", Tier::kAod, 0, 100, model);
  index.update_site("big", snapshot_catalog(big, 1));
  index.update_site("small", snapshot_catalog(small, 1));

  std::vector<ObjectId> needed;
  for (int e = 0; e < 1000; e += 10) {
    needed.push_back(make_object_id(Tier::kAod, e));
  }
  const auto plan = index.plan(needed);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan.contains("big"));
  EXPECT_EQ(plan.at("big").size(), needed.size());
}

TEST(GlobalIndex, PlanReportsUnlocatable) {
  GlobalObjectIndex index;
  const auto plan = index.plan({make_object_id(Tier::kRaw, 1)});
  ASSERT_TRUE(plan.contains(""));
}

// Three sites with overlapping holdings. Round 1: beta holds 12 ids.
// Round 2: alpha and gamma hold 5 each, and alpha wins the tie as the
// first site in name order. Round 3: gamma. Two ids nobody holds. The
// partitions were captured from the two-pass plan this one replaced.
TEST(GlobalIndex, PlanPartitionsOverlappingSitesAndBreaksTiesByName) {
  const EventModel model = EventModel::standard(10000);
  const auto aod = [](std::int64_t event) {
    return make_object_id(Tier::kAod, event);
  };
  objstore::ObjectFileCatalog alpha;
  objstore::ObjectFileCatalog beta;
  objstore::ObjectFileCatalog gamma;
  (void)alpha.add_range_file("/alpha", Tier::kAod, 0, 100, model);
  (void)beta.add_range_file("/beta", Tier::kAod, 50, 150, model);
  (void)beta.add_packed_file("/beta-p", {aod(500), aod(501)}, model);
  (void)gamma.add_range_file("/gamma", Tier::kAod, 150, 185, model);
  (void)gamma.add_packed_file("/gamma-p", {aod(600), aod(501)}, model);
  GlobalObjectIndex index;
  index.update_site("gamma", snapshot_catalog(gamma, 1));
  index.update_site("alpha", snapshot_catalog(alpha, 1));
  index.update_site("beta", snapshot_catalog(beta, 1));
  std::vector<ObjectId> needed = {aod(700), aod(600), aod(501), aod(500)};
  for (int e = 190; e >= 0; e -= 10) needed.push_back(aod(e));

  std::map<std::string, std::vector<std::int64_t>> plan;
  for (const auto& [site, ids] : index.plan(needed)) {
    for (const ObjectId id : ids) plan[site].push_back(objstore::event_of(id));
  }
  EXPECT_EQ(plan, (std::map<std::string, std::vector<std::int64_t>>{
                      {"", {700, 190}},
                      {"alpha", {40, 30, 20, 10, 0}},
                      {"beta",
                       {501, 500, 140, 130, 120, 110, 100, 90, 80, 70, 60, 50}},
                      {"gamma", {600, 180, 170, 160, 150}}}));
}

// Snapshot wire format: range files come straight from the catalog's range
// index, packed files are interval-compressed when contiguous, and empty
// ones are skipped. The bytes were captured from the snapshot built by
// enumerating every file's objects; its size sets an index refresh's sim
// time, so it must not move.
TEST(GlobalIndex, SnapshotEncodingIsByteStable) {
  const EventModel model = EventModel::standard(10000);
  objstore::ObjectFileCatalog catalog;
  (void)catalog.add_range_file("/r/aod-1", Tier::kAod, 2000, 4000, model);
  (void)catalog.add_range_file("/r/aod-0", Tier::kAod, 0, 2000, model);
  (void)catalog.add_range_file("/r/esd-0", Tier::kEsd, 0, 500, model);
  (void)catalog.add_packed_file(
      "/p/scattered",
      {make_object_id(Tier::kAod, 5), make_object_id(Tier::kAod, 9),
       make_object_id(Tier::kEsd, 3), make_object_id(Tier::kAod, 7)},
      model);
  (void)catalog.add_packed_file(
      "/p/contiguous",
      {make_object_id(Tier::kTag, 10), make_object_id(Tier::kTag, 11),
       make_object_id(Tier::kTag, 12)},
      model);
  (void)catalog.add_packed_file("/p/empty", {}, model);
  (void)catalog.add_packed_file("/p/single", {make_object_id(Tier::kRaw, 42)},
                                model);
  const IndexSnapshot snapshot = snapshot_catalog(catalog, 9);
  rpc::Writer w;
  encode_snapshot(w, snapshot);
  std::string hex;
  for (const std::uint8_t byte : w.take()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  EXPECT_EQ(snapshot.wire_bytes(), 234);
  EXPECT_EQ(hex,
            "0900000000000000"                     // generation
            "05000000"                             // range entries
            "080000002f722f616f642d30"             // "/r/aod-0"
            "010000000000000000d007000000000000"   // AOD [0, 2000)
            "080000002f722f616f642d31"             // "/r/aod-1"
            "01d007000000000000a00f000000000000"   // AOD [2000, 4000)
            "080000002f722f6573642d30"             // "/r/esd-0"
            "020000000000000000f401000000000000"   // ESD [0, 500)
            "0d0000002f702f636f6e746967756f7573"   // "/p/contiguous"
            "000a000000000000000d00000000000000"   // tag [10, 13)
            "090000002f702f73696e676c65"           // "/p/single"
            "032a000000000000002b00000000000000"   // raw [42, 43)
            "01000000"                             // packed entries
            "0c0000002f702f736361747465726564"     // "/p/scattered"
            "04000000"                             // four ids
            "0500000000000001"                     // AOD 5
            "0900000000000001"                     // AOD 9
            "0300000000000002"                     // ESD 3
            "0700000000000001");                   // AOD 7
}

struct ObjRepFixture {
  Grid grid;

  ObjRepFixture(bool pipeline = true, std::int64_t events = 20000,
                Bytes chunk = 8 * kMiB, std::size_t consumers = 1)
      : grid(make_config(pipeline, events, chunk, consumers)) {
    EXPECT_TRUE(grid.start().is_ok());
    // Producer holds the whole AOD tier.
    testbed::ProductionConfig production;
    production.tier = Tier::kAod;
    production.event_hi = events;
    auto files = testbed::produce_run(grid.site(0), production);
    grid.site(0).gdmp().publish(files, [](Status) {});
    grid.run_until(120 * kSecond);
    // Consumers learn the producer's object holdings.
    std::size_t indexed = 0;
    for (std::size_t c = 1; c <= consumers; ++c) {
      grid.site(c).objrep().refresh_index_from(
          "cern", grid.site(0).host().id(), 2000,
          [&](Status s) { indexed += s.is_ok() ? 1 : 0; });
    }
    grid.run_until(grid.simulator().now() + 60 * kSecond);
    EXPECT_EQ(indexed, consumers);
  }

  static GridConfig make_config(bool pipeline, std::int64_t events,
                                Bytes chunk, std::size_t consumers) {
    GridConfig config = two_site_config();
    for (std::size_t c = 2; c <= consumers; ++c) {
      config.sites.push_back(config.sites[1]);
      config.sites.back().name = "anl" + std::to_string(c);
    }
    config.event_count = events;
    for (auto& spec : config.sites) {
      spec.site.gdmp.transfer.parallel_streams = 4;
      spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
      spec.site.objrep.pipeline = pipeline;
      spec.site.objrep.copier.max_output_file = chunk;
    }
    return config;
  }
};

TEST(ObjectReplication, FullCycleMovesSelectedObjects) {
  ObjRepFixture f;
  Rng rng(5);
  SelectionConfig selection;
  selection.fraction = 2e-3;  // 40 of 20000 events
  const auto needed = select_objects(f.grid.model(), selection, rng);
  ASSERT_FALSE(needed.empty());

  bool done = false;
  ObjectReplicationService::Outcome outcome;
  f.grid.site(1).objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> result) {
        done = true;
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        outcome = *result;
      });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome.objects_requested,
            static_cast<std::int64_t>(needed.size()));
  EXPECT_EQ(outcome.payload_bytes,
            selection_bytes(f.grid.model(), needed));
  EXPECT_GT(outcome.chunks, 0);

  // Every requested object is now locally readable at the consumer.
  for (const ObjectId id : needed) {
    EXPECT_TRUE(f.grid.site(1).persistency()->available(id));
  }
  // Transfer moved roughly the selection payload, not whole range files.
  const Bytes file_equivalent =
      files_covering(f.grid.site(0).federation()->catalog(), f.grid.model(),
                     needed)
          .total_bytes;
  EXPECT_LT(outcome.transferred_bytes, file_equivalent / 4);
}

TEST(ObjectReplication, SurvivesDestructionMidReplication) {
  // Destination-side request state rides through rpc calls, gridftp
  // transfers and copier completions, all of which can fire after the
  // service dies. Destroy a service with a replication in flight and drain
  // the simulator: the alive_ sentinels must turn every queued continuation
  // into a no-op (asan preset turns any miss into a hard failure).
  ObjRepFixture f;
  auto service = std::make_unique<ObjectReplicationService>(
      f.grid.site(1).gdmp_server());
  bool indexed = false;
  service->refresh_index_from("cern", f.grid.site(0).host().id(), 2000,
                              [&](Status s) { indexed = s.is_ok(); });
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  ASSERT_TRUE(indexed);

  Rng rng(7);
  SelectionConfig selection;
  selection.fraction = 1e-2;  // ~200 objects: several chunk round trips
  const auto needed = select_objects(f.grid.model(), selection, rng);
  ASSERT_FALSE(needed.empty());
  bool done = false;
  service->replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome>) { done = true; });
  // One WAN propagation is 62.5 ms, so at 300 ms the pack request has
  // reached the source and data is in flight, but the chunk transfers and
  // acks cannot all have completed. Kill the service mid-reply-chain.
  f.grid.run_until(f.grid.simulator().now() + 300 * kMillisecond);
  ASSERT_FALSE(done);
  service.reset();
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  EXPECT_FALSE(done);  // the orphaned completion chain went quiet
}

TEST(ObjectReplication, SourceTemporariesDeleted) {
  ObjRepFixture f;
  Rng rng(6);
  SelectionConfig selection;
  selection.fraction = 1e-3;
  const auto needed = select_objects(f.grid.model(), selection, rng);
  bool done = false;
  f.grid.site(1).objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> r) {
        done = r.is_ok();
      });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(done);
  // Give the chunk-ack round trips time to land.
  f.grid.run_until(f.grid.simulator().now() + 120 * kSecond);
  EXPECT_TRUE(f.grid.site(0).pool().list("/pack").empty());
}

TEST(ObjectReplication, ConcurrentEqualIdJobsFromTwoConsumers) {
  // Each consumer numbers its requests from 1, so two first jobs arrive at
  // the source with equal ids while both are still packing. Their
  // temporaries must not share names: both complete and none are left.
  ObjRepFixture f(true, 20000, 8 * kMiB, /*consumers=*/2);
  Rng rng(9);
  SelectionConfig selection;
  selection.fraction = 2e-3;
  const auto first = select_objects(f.grid.model(), selection, rng);
  const auto second = select_objects(f.grid.model(), selection, rng);
  ASSERT_NE(first, second);
  Status statuses[2] = {make_error(ErrorCode::kInternal, "pending"),
                        make_error(ErrorCode::kInternal, "pending")};
  for (std::size_t c = 1; c <= 2; ++c) {
    f.grid.site(c).objrep().replicate_objects(
        c == 1 ? first : second,
        [&statuses, c](Result<ObjectReplicationService::Outcome> r) {
          statuses[c - 1] = r.status();
        });
  }
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  EXPECT_TRUE(statuses[0].is_ok()) << statuses[0].to_string();
  EXPECT_TRUE(statuses[1].is_ok()) << statuses[1].to_string();
  for (std::size_t c = 1; c <= 2; ++c) {
    for (const ObjectId id : c == 1 ? first : second) {
      EXPECT_TRUE(f.grid.site(c).persistency()->available(id));
    }
  }
  EXPECT_TRUE(f.grid.site(0).pool().list("/pack").empty());
}

TEST(ObjectReplication, AlreadyLocalObjectsSkipped) {
  ObjRepFixture f;
  Rng rng(7);
  SelectionConfig selection;
  selection.fraction = 1e-3;
  const auto needed = select_objects(f.grid.model(), selection, rng);
  bool first_done = false;
  f.grid.site(1).objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> r) {
        first_done = r.is_ok();
      });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(first_done);

  ObjectReplicationService::Outcome second;
  bool second_done = false;
  f.grid.site(1).objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> r) {
        ASSERT_TRUE(r.is_ok());
        second = *r;
        second_done = true;
      });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(second_done);
  EXPECT_EQ(second.objects_already_local, second.objects_requested);
  EXPECT_EQ(second.transferred_bytes, 0);
}

TEST(ObjectReplication, UnknownObjectsFail) {
  ObjRepFixture f;
  Status status = Status::ok();
  f.grid.site(1).objrep().replicate_objects(
      {make_object_id(Tier::kRaw, 19999)},
      [&](Result<ObjectReplicationService::Outcome> r) {
        status = r.status();
      });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(ObjectReplication, PipeliningReducesResponseTime) {
  // 1000 AOD objects (~10 MiB) in 2 MiB chunks: the per-object seek cost of
  // the copier (~5 s total) is comparable to the WAN phase, so overlap must
  // shorten the response time.
  SimDuration with_pipeline = 0, without_pipeline = 0;
  for (const bool pipeline : {true, false}) {
    ObjRepFixture f(pipeline, 20000, 2 * kMiB);
    Rng rng(8);
    SelectionConfig selection;
    selection.fraction = 5e-2;  // enough for several chunks
    const auto needed = select_objects(f.grid.model(), selection, rng);
    SimDuration elapsed = 0;
    f.grid.site(1).objrep().replicate_objects(
        needed, [&](Result<ObjectReplicationService::Outcome> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          elapsed = r->elapsed;
        });
    f.grid.run_until(f.grid.simulator().now() + 7200 * kSecond);
    ASSERT_GT(elapsed, 0);
    (pipeline ? with_pipeline : without_pipeline) = elapsed;
  }
  EXPECT_LT(with_pipeline, without_pipeline);
}

}  // namespace
}  // namespace gdmp::objrep
