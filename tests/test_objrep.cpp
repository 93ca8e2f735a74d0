// Tests for object replication: selections, global index, full cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "objrep/global_index.h"
#include "objrep/replicator.h"
#include "objrep/selection.h"
#include "obs/channel.h"
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
  ASSERT_TRUE(
      index.update_site("cern", snapshot_catalog(cern, 1), model).is_ok());
  ASSERT_TRUE(
      index.update_site("anl", snapshot_catalog(anl, 1), model).is_ok());

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
  ASSERT_TRUE(
      index.update_site("big", snapshot_catalog(big, 1), model).is_ok());
  ASSERT_TRUE(
      index.update_site("small", snapshot_catalog(small, 1), model).is_ok());

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

// Four sites with overlapping holdings. Round 1: beta holds 12 ids.
// Round 2: alpha and gamma hold 5 each, and alpha wins the tie as the
// first site in name order. Round 3: gamma. Round 4: delta, whose
// snapshot carries its contiguous packed file as a range nested inside its
// production range, so events 350 and 399 lie past the nested range's end.
// Three ids nobody holds. The partitions were captured from the two-pass
// plan this one replaced, and delta's (plan and locate) from the index
// that kept its own interval walk.
TEST(GlobalIndex, PlanPartitionsOverlappingSitesAndBreaksTiesByName) {
  const EventModel model = EventModel::standard(10000);
  const auto aod = [](std::int64_t event) {
    return make_object_id(Tier::kAod, event);
  };
  objstore::ObjectFileCatalog alpha;
  objstore::ObjectFileCatalog beta;
  objstore::ObjectFileCatalog gamma;
  objstore::ObjectFileCatalog delta;
  (void)alpha.add_range_file("/alpha", Tier::kAod, 0, 100, model);
  (void)beta.add_range_file("/beta", Tier::kAod, 50, 150, model);
  (void)beta.add_packed_file("/beta-p", {aod(500), aod(501)}, model);
  (void)gamma.add_range_file("/gamma", Tier::kAod, 150, 185, model);
  (void)gamma.add_packed_file("/gamma-p", {aod(600), aod(501)}, model);
  (void)delta.add_range_file("/delta", Tier::kAod, 300, 400, model);
  (void)delta.add_packed_file("/delta-p", {aod(310), aod(311), aod(312)},
                              model);
  const IndexSnapshot delta_snapshot = snapshot_catalog(delta, 1);
  ASSERT_EQ(delta_snapshot.ranges.size(), 2u);
  ASSERT_TRUE(delta_snapshot.packed.empty());
  GlobalObjectIndex index;
  ASSERT_TRUE(
      index.update_site("gamma", snapshot_catalog(gamma, 1), model).is_ok());
  ASSERT_TRUE(
      index.update_site("alpha", snapshot_catalog(alpha, 1), model).is_ok());
  ASSERT_TRUE(
      index.update_site("beta", snapshot_catalog(beta, 1), model).is_ok());
  ASSERT_TRUE(index.update_site("delta", delta_snapshot, model).is_ok());
  std::vector<ObjectId> needed = {aod(700), aod(600), aod(501), aod(500),
                                  aod(350), aod(311), aod(399), aod(400)};
  for (int e = 190; e >= 0; e -= 10) needed.push_back(aod(e));

  using Holders = std::vector<std::pair<std::string, std::string>>;
  const auto holders = [&index](ObjectId id) {
    Holders out;
    for (const RemoteObject& holder : index.locate(id)) {
      out.emplace_back(holder.site, holder.file);
    }
    return out;
  };
  EXPECT_EQ(holders(aod(350)), (Holders{{"delta", "/delta"}}));
  EXPECT_EQ(holders(aod(311)),
            (Holders{{"delta", "/delta-p"}, {"delta", "/delta"}}));
  EXPECT_EQ(holders(aod(399)), (Holders{{"delta", "/delta"}}));
  EXPECT_EQ(holders(aod(501)),
            (Holders{{"beta", "/beta-p"}, {"gamma", "/gamma-p"}}));
  EXPECT_EQ(holders(aod(60)),
            (Holders{{"alpha", "/alpha"}, {"beta", "/beta"}}));
  EXPECT_TRUE(holders(aod(400)).empty());

  std::map<std::string, std::vector<std::int64_t>> plan;
  for (const auto& [site, ids] : index.plan(needed)) {
    for (const ObjectId id : ids) plan[site].push_back(objstore::event_of(id));
  }
  EXPECT_EQ(plan, (std::map<std::string, std::vector<std::int64_t>>{
                      {"", {700, 400, 190}},
                      {"alpha", {40, 30, 20, 10, 0}},
                      {"beta",
                       {501, 500, 140, 130, 120, 110, 100, 90, 80, 70, 60, 50}},
                      {"delta", {350, 311, 399}},
                      {"gamma", {600, 180, 170, 160, 150}}}));
}

// A site's holdings change only when its whole snapshot registers. Each
// snapshot below starts with a valid entry, so a partial install would
// show as a hit at event 7000.
TEST(GlobalIndex, UpdateSiteRefusesBadEntriesAndKeepsHoldings) {
  const EventModel model = EventModel::standard(10000);
  objstore::ObjectFileCatalog cern;
  (void)cern.add_range_file("/a", Tier::kAod, 0, 5000, model);
  GlobalObjectIndex index;
  ASSERT_TRUE(index.update_site("cern", snapshot_catalog(cern, 1), model)
                  .is_ok());
  const auto range = [](std::string file, std::int64_t lo, std::int64_t hi,
                        Tier tier = Tier::kAod) {
    return IndexSnapshot::RangeEntry{std::move(file), tier, lo, hi};
  };
  const auto snapshot = [&](std::vector<IndexSnapshot::RangeEntry> ranges,
                            std::vector<IndexSnapshot::PackedEntry> packed) {
    IndexSnapshot out;
    out.generation = 2;
    out.ranges = {range("/b", 5000, 10000)};
    out.ranges.insert(out.ranges.end(), ranges.begin(), ranges.end());
    out.packed = std::move(packed);
    return out;
  };
  const ObjectId bad_tier_id{0x0900000000000005ULL};
  const struct {
    const char* what;
    IndexSnapshot snapshot;
    ErrorCode code;
  } cases[] = {
      {"range file named twice", snapshot({range("/b", 0, 10)}, {}),
       ErrorCode::kAlreadyExists},
      {"range and packed file share a name",
       snapshot({}, {{"/b", {make_object_id(Tier::kAod, 1)}}}),
       ErrorCode::kAlreadyExists},
      {"packed file named twice",
       snapshot({}, {{"/p", {make_object_id(Tier::kAod, 1)}},
                     {"/p", {make_object_id(Tier::kAod, 2)}}}),
       ErrorCode::kAlreadyExists},
      {"empty event range", snapshot({range("/c", 10, 10)}, {}),
       ErrorCode::kInvalidArgument},
      {"reversed event range", snapshot({range("/c", 20, 10)}, {}),
       ErrorCode::kInvalidArgument},
      {"negative first event", snapshot({range("/c", -5, 10)}, {}),
       ErrorCode::kInvalidArgument},
      {"range file of no tier",
       snapshot({range("/c", 0, 10, static_cast<Tier>(9))}, {}),
       ErrorCode::kInvalidArgument},
      {"packed id of no tier", snapshot({}, {{"/p", {bad_tier_id}}}),
       ErrorCode::kInvalidArgument},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(index.update_site("cern", c.snapshot, model).code(), c.code)
        << c.what;
    EXPECT_TRUE(index.locate(make_object_id(Tier::kAod, 7000)).empty())
        << c.what;
    ASSERT_EQ(index.locate(make_object_id(Tier::kAod, 100)).size(), 1u)
        << c.what;
    EXPECT_EQ(index.site_count(), 1u);
  }
  // An id of no tier is held by no site.
  EXPECT_TRUE(index.locate(bad_tier_id).empty());
  EXPECT_EQ(index.plan({bad_tier_id}).count(""), 1u);
  // A good snapshot replaces the holdings whole.
  ASSERT_TRUE(index.update_site("cern", snapshot({}, {}), model).is_ok());
  EXPECT_TRUE(index.locate(make_object_id(Tier::kAod, 100)).empty());
  EXPECT_EQ(index.locate(make_object_id(Tier::kAod, 7000)).size(), 1u);
}

// Random multi-site layouts: overlapping range files, contiguous packed
// files (which snapshots carry as ranges) and scattered ones. locate() must
// list what a scan of the snapshots finds: site by site in name order, the
// ranges holding the id latest start first (of equal starts, the later
// snapshot entry first), then the packed entries in snapshot order, once
// per listing of the id.
TEST(GlobalIndex, LocateMatchesScanOfOverlappingSnapshots) {
  const EventModel model = EventModel::standard(10000);
  std::uint64_t x = 0x6a09e667f3bcc909ULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto random_tier = [&] {
    return next(2) == 0 ? Tier::kAod : Tier::kEsd;
  };
  using Holders = std::vector<std::pair<std::string, std::string>>;
  for (int layout = 0; layout < 40; ++layout) {
    std::map<std::string, IndexSnapshot> snapshots;
    GlobalObjectIndex index;
    for (const char* site : {"ral", "cern", "lyon"}) {
      objstore::ObjectFileCatalog catalog;
      for (int i = 0, n = static_cast<int>(next(12)); i < n; ++i) {
        const auto lo = static_cast<std::int64_t>(next(300));
        (void)catalog.add_range_file(
            "/r" + std::to_string(i), random_tier(), lo,
            lo + 1 + static_cast<std::int64_t>(next(next(3) == 0 ? 200 : 20)),
            model);
      }
      for (int i = 0, n = static_cast<int>(next(8)); i < n; ++i) {
        std::vector<ObjectId> objects(1 + next(12));
        const Tier tier = random_tier();
        const auto first = static_cast<std::int64_t>(next(320));
        const bool contiguous = next(2) == 0;
        for (std::size_t k = 0; k < objects.size(); ++k) {
          objects[k] = make_object_id(
              tier, contiguous ? first + static_cast<std::int64_t>(k)
                               : static_cast<std::int64_t>(next(320)));
        }
        (void)catalog.add_packed_file("/p" + std::to_string(i),
                                      std::move(objects), model);
      }
      snapshots[site] = snapshot_catalog(catalog, 1);
      ASSERT_TRUE(index.update_site(site, snapshots[site], model).is_ok());
    }
    const auto scan = [&snapshots](ObjectId id) {
      const std::int64_t event = objstore::event_of(id);
      Holders out;
      for (const auto& [site, snapshot] : snapshots) {
        std::vector<const IndexSnapshot::RangeEntry*> ranges;
        for (auto it = snapshot.ranges.rbegin(); it != snapshot.ranges.rend();
             ++it) {
          if (it->tier == objstore::tier_of(id) && it->event_lo <= event &&
              event < it->event_hi) {
            ranges.push_back(&*it);
          }
        }
        std::stable_sort(ranges.begin(), ranges.end(),
                         [](const auto* a, const auto* b) {
                           return a->event_lo > b->event_lo;
                         });
        for (const auto* entry : ranges) out.emplace_back(site, entry->file);
        for (const auto& entry : snapshot.packed) {
          for (const ObjectId o : entry.objects) {
            if (o == id) out.emplace_back(site, entry.file);
          }
        }
      }
      return out;
    };
    for (const Tier tier : {Tier::kAod, Tier::kEsd}) {
      for (std::int64_t event = 0; event <= 520; ++event) {
        const ObjectId id = make_object_id(tier, event);
        Holders located;
        for (const RemoteObject& holder : index.locate(id)) {
          located.emplace_back(holder.site, holder.file);
        }
        ASSERT_EQ(located, scan(id))
            << "layout " << layout << " " << objstore::tier_name(tier) << " "
            << event;
      }
    }
  }
}

// plan() counts each site's share of the remainder with one catalog cursor
// per round (DESIGN.md §5k). The same greedy rule asked per id with fresh
// walks, over catalogs built from the same snapshots, gives the same
// partition for ascending, descending, duplicated, tier-interleaved and
// shuffled batches over nested, overlapping range files and packed files.
TEST(GlobalIndex, PlanWithCursorMatchesPerIdReference) {
  const EventModel model = EventModel::standard(10000);
  std::uint64_t x = 0xbb67ae8584caa73bULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto random_tier = [&] {
    return next(2) == 0 ? Tier::kAod : Tier::kEsd;
  };
  using Plan = std::map<std::string, std::vector<ObjectId>>;
  int split = 0;  // plans that drew on two or more sites
  for (int layout = 0; layout < 20; ++layout) {
    GlobalObjectIndex index;
    std::map<std::string, objstore::ObjectFileCatalog> sites;
    for (const char* site : {"ral", "cern", "lyon", "fnal"}) {
      objstore::ObjectFileCatalog catalog;
      for (int i = 0, n = static_cast<int>(next(14)); i < n; ++i) {
        const auto lo = static_cast<std::int64_t>(next(400));
        (void)catalog.add_range_file(
            "/r" + std::to_string(i), random_tier(), lo,
            lo + 1 + static_cast<std::int64_t>(next(next(3) == 0 ? 250 : 25)),
            model);
      }
      for (int i = 0, n = static_cast<int>(next(8)); i < n; ++i) {
        std::vector<ObjectId> objects(1 + next(30));
        for (ObjectId& id : objects) {
          id = make_object_id(random_tier(),
                              static_cast<std::int64_t>(next(450)));
        }
        (void)catalog.add_packed_file("/p" + std::to_string(i),
                                      std::move(objects), model);
      }
      const IndexSnapshot snapshot = snapshot_catalog(catalog, 1);
      ASSERT_TRUE(index.update_site(site, snapshot, model).is_ok());
      for (const auto& entry : snapshot.ranges) {
        ASSERT_TRUE(sites[site]
                        .add_range_file(entry.file, entry.tier, entry.event_lo,
                                        entry.event_hi, model)
                        .is_ok());
      }
      for (const auto& entry : snapshot.packed) {
        ASSERT_TRUE(
            sites[site].add_packed_file(entry.file, entry.objects, model)
                .is_ok());
      }
    }
    const auto reference = [&sites](std::vector<ObjectId> remaining) {
      Plan out;
      while (!remaining.empty()) {
        const std::string* best = nullptr;
        std::size_t best_count = 0;
        for (const auto& [site, catalog] : sites) {
          if (out.contains(site)) continue;
          const auto count = static_cast<std::size_t>(std::count_if(
              remaining.begin(), remaining.end(),
              [&catalog](ObjectId id) { return catalog.contains(id); }));
          if (count > best_count) {
            best_count = count;
            best = &site;
          }
        }
        if (best == nullptr) {
          out[""].insert(out[""].end(), remaining.begin(), remaining.end());
          break;
        }
        std::vector<ObjectId> rest;
        for (const ObjectId id : remaining) {
          (sites.at(*best).contains(id) ? out[*best] : rest).push_back(id);
        }
        remaining = std::move(rest);
      }
      return out;
    };
    for (int batch = 0; batch < 10; ++batch) {
      std::vector<ObjectId> needed(1 + next(150));
      for (ObjectId& id : needed) {
        id = make_object_id(random_tier(), static_cast<std::int64_t>(next(480)));
      }
      switch (batch % 5) {
        case 0:
          std::sort(needed.begin(), needed.end());
          break;
        case 1:
          std::sort(needed.rbegin(), needed.rend());
          break;
        case 2:
          for (std::size_t i = 0, n = needed.size(); i < n; i += 2) {
            needed.push_back(needed[i]);
          }
          std::sort(needed.begin(), needed.end());
          break;
        case 3:
          std::stable_sort(needed.begin(), needed.end(),
                           [](ObjectId a, ObjectId b) {
                             return objstore::event_of(a) <
                                    objstore::event_of(b);
                           });
          break;
        default:
          break;
      }
      const Plan plan = index.plan(needed);
      ASSERT_EQ(plan, reference(needed))
          << "layout " << layout << " batch " << batch;
      split += plan.size() - plan.count("") >= 2 ? 1 : 0;
    }
  }
  EXPECT_GT(split, 50);
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

TEST(ObjectReplication, ChunkPullsPublishOnTransferChannel) {
  // Chunk pulls are GridFTP pulls like file pulls, so the consumer's
  // transfer channel sees each one: an ok summary per chunk, carrying the
  // chunk file's size and the source site as peer, and perf markers for
  // an on_perf subscriber.
  ObjRepFixture f(/*pipeline=*/true, /*events=*/20000, /*chunk=*/1 * kMiB);
  Site& consumer = f.grid.site(1);
  std::vector<obs::TransferSummary> summaries;
  int perf_markers = 0;
  obs::TransferChannel::Observer observer;
  observer.on_perf = [&](const obs::PerfMarker&) { ++perf_markers; };
  observer.on_complete = [&](const obs::TransferSummary& summary) {
    summaries.push_back(summary);
  };
  auto& channel = consumer.gdmp_server().transfer_channel();
  const auto token = channel.subscribe(std::move(observer));

  Rng rng(5);
  SelectionConfig selection;
  selection.fraction = 1e-2;
  const auto needed = select_objects(f.grid.model(), selection, rng);
  bool done = false;
  ObjectReplicationService::Outcome outcome;
  consumer.objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> result) {
        done = true;
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        outcome = *result;
      });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  channel.unsubscribe(token);
  ASSERT_TRUE(done);
  ASSERT_GT(outcome.chunks, 1);

  ASSERT_EQ(summaries.size(), static_cast<std::size_t>(outcome.chunks));
  std::vector<Bytes> summary_bytes;
  for (const obs::TransferSummary& summary : summaries) {
    EXPECT_TRUE(summary.ok);
    EXPECT_EQ(summary.peer, "cern");
    summary_bytes.push_back(summary.bytes);
  }
  // The chunks landed as packed files under the consumer's objrep prefix.
  const auto& server = consumer.gdmp_server();
  std::vector<Bytes> chunk_bytes;
  for (const auto& file : consumer.pool().list(server.local_path_for(
           "lfn://" + server.config().collection + "/" + consumer.name() +
           "/objrep/"))) {
    chunk_bytes.push_back(file.size);
  }
  std::sort(summary_bytes.begin(), summary_bytes.end());
  std::sort(chunk_bytes.begin(), chunk_bytes.end());
  EXPECT_EQ(summary_bytes, chunk_bytes);
  EXPECT_GT(perf_markers, 0);
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

TEST(ObjectReplication, ChunkAckDeletesOnlyPackedTemporaries) {
  // A chunk ack that names a published file, or nothing readable, is
  // refused: the file stays in the pool and attached to the federation.
  ObjRepFixture f;
  Site& source = f.grid.site(0);
  const std::string published =
      snapshot_catalog(source.federation()->catalog(), 1).ranges.at(0).file;
  ASSERT_TRUE(source.federation()->is_attached(published));
  const auto ack = [&f](std::vector<std::uint8_t> params) {
    std::optional<Status> status;
    f.grid.site(1)
        .gdmp_server()
        .peer(f.grid.site(0).host().id(), 2000)
        .call("objrep.chunk_ack", std::move(params),
              [&status](Status s, std::vector<std::uint8_t>) { status = s; });
    f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
    return status.value_or(make_error(ErrorCode::kInternal, "no reply"));
  };
  rpc::Writer w;
  w.u64(1);  // request id
  w.str(published);
  EXPECT_EQ(ack(w.take()).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ack({}).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(source.pool().contains(published));
  EXPECT_TRUE(source.federation()->is_attached(published));
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

TEST(ObjectReplication, ConsumerWithoutObjectStoreFailsAtOnce) {
  // A site without an object store can neither load an index (its
  // catalogs take object sizes from the local event model) nor hold the
  // objects it asks for, so both calls fail at once and send nothing.
  GridConfig config = two_site_config();
  config.sites[1].site.has_federation = false;
  config.event_count = 20000;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig production;
  production.tier = Tier::kAod;
  production.event_hi = 20000;
  grid.site(0).gdmp().publish(testbed::produce_run(grid.site(0), production),
                              [](Status) {});
  grid.run_until(120 * kSecond);
  const std::int64_t served =
      grid.site(0).gdmp_server().rpc().requests_served();
  ObjectReplicationService& consumer = grid.site(1).objrep();

  std::optional<Status> indexed;
  consumer.refresh_index_from("cern", grid.site(0).host().id(), 2000,
                              [&](Status s) { indexed = s; });
  EXPECT_TRUE(indexed.has_value());
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  ASSERT_TRUE(indexed.has_value());
  EXPECT_EQ(indexed->code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(indexed->message(), "site has no object store");

  std::optional<Status> replicated;
  consumer.replicate_objects(
      {make_object_id(Tier::kAod, 5)},
      [&](Result<ObjectReplicationService::Outcome> r) {
        replicated = r.status();
      });
  EXPECT_TRUE(replicated.has_value());
  grid.run_until(grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(replicated.has_value());
  EXPECT_EQ(replicated->code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(replicated->message(), "site has no object store");
  EXPECT_EQ(grid.site(0).gdmp_server().rpc().requests_served(), served);
  EXPECT_EQ(consumer.stats().requests, 0);
}

TEST(ObjectReplication, MalformedIndexReplyKeepsPreviousHoldings) {
  // The consumer holds cern's full index. A stub get_index handler then
  // serves cern's snapshot cut inside its second range entry, again whole
  // but with a trailing byte, and a packed entry that claims 2^32 - 1 ids
  // but carries one: each is refused, and the consumer still finds every
  // object at cern.
  ObjRepFixture f;
  ObjectReplicationService& consumer = f.grid.site(1).objrep();
  const auto located = [&consumer](std::int64_t event) {
    return consumer.index().locate(make_object_id(Tier::kAod, event)).size();
  };
  ASSERT_EQ(located(0), 1u);
  ASSERT_EQ(located(19999), 1u);
  const IndexSnapshot snapshot =
      snapshot_catalog(f.grid.site(0).federation()->catalog(), 2);
  ASSERT_GT(snapshot.ranges.size(), 2u);
  rpc::Writer w;
  encode_snapshot(w, snapshot);
  const std::vector<std::uint8_t> whole = w.take();
  // Generation and entry count, the first entry, and part of the second.
  const std::size_t cut = 12 + 4 + snapshot.ranges[0].file.size() + 17 + 10;
  rpc::Writer overstated;
  overstated.u64(3);
  overstated.u32(0);  // no ranges
  overstated.u32(1);  // one packed entry...
  overstated.str("/p");
  overstated.u32(~std::uint32_t{0});  // ...claiming every id there is
  overstated.u64(make_object_id(Tier::kAod, 1).value);
  std::vector<std::vector<std::uint8_t>> replies = {
      {whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(cut)},
      whole, overstated.take()};
  replies[1].push_back(0);
  for (const auto& reply : replies) {
    f.grid.site(0).gdmp_server().rpc().register_method(
        "objrep.get_index", [reply](auto&, auto, auto, auto respond) {
          respond(Status::ok(), reply);
        });
    std::optional<Status> status;
    consumer.refresh_index_from("cern", f.grid.site(0).host().id(), 2000,
                                [&](Status s) { status = s; });
    f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->code(), ErrorCode::kInvalidArgument)
        << reply.size() << " of " << whole.size() << " bytes";
    EXPECT_EQ(located(0), 1u);
    EXPECT_EQ(located(19999), 1u);
  }
}

TEST(ObjectReplication, OverstatedIdCountsAreRefused) {
  // Pack requests and chunk notices carry an id count read off the wire. A
  // count far beyond the bytes that follow is refused as malformed, and
  // no reservation is sized from it.
  ObjRepFixture f;
  const auto send = [&f](std::size_t from, std::size_t to, const char* method,
                         std::vector<std::uint8_t> params) {
    std::optional<Status> status;
    f.grid.site(from)
        .gdmp_server()
        .peer(f.grid.site(to).host().id(), 2000)
        .call(method, std::move(params),
              [&status](Status s, std::vector<std::uint8_t>) { status = s; });
    f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
    EXPECT_TRUE(status.has_value()) << method;
    return status.value_or(Status::ok());
  };
  rpc::Writer pack;
  pack.u64(1);  // request id
  pack.u32(static_cast<std::uint32_t>(f.grid.site(1).host().id()));
  pack.u16(2000);
  pack.boolean(true);
  pack.u32(~std::uint32_t{0});  // id count
  pack.u64(make_object_id(Tier::kAod, 1).value);  // one id
  const Status packed = send(1, 0, "objrep.pack", pack.take());
  EXPECT_EQ(packed.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(packed.message(), "malformed pack");

  rpc::Writer chunk;
  chunk.u64(1);  // request id
  chunk.str("/pack/req1/chunk-0");
  chunk.i64(10 * kKiB);
  chunk.u32(0);  // crc
  chunk.u32(~std::uint32_t{0});  // id count
  chunk.u64(make_object_id(Tier::kAod, 1).value);  // one id
  const Status chunked = send(0, 1, "objrep.chunk", chunk.take());
  EXPECT_EQ(chunked.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(chunked.message(), "malformed chunk");
  EXPECT_EQ(f.grid.site(0).objrep().stats().packs_served, 0);
}

TEST(ObjectReplication, MalformedPackDoneIsRefused) {
  // A pack_done the reader cannot parse is refused and touches no
  // sub-request: neither an empty frame nor one carrying only the id of a
  // live sub-request, whose replication then completes normally.
  ObjRepFixture f;
  const auto send = [&f](std::vector<std::uint8_t> params) {
    std::optional<Status> status;
    f.grid.site(0)
        .gdmp_server()
        .peer(f.grid.site(1).host().id(), 2000)
        .call("objrep.pack_done", std::move(params),
              [&status](Status s, std::vector<std::uint8_t>) { status = s; });
    while (!status.has_value() &&
           f.grid.simulator().now() < 3600 * kSecond) {
      f.grid.run_until(f.grid.simulator().now() + 10 * kMillisecond);
    }
    return status.value_or(make_error(ErrorCode::kInternal, "no reply"));
  };
  const Status empty = send({});
  EXPECT_EQ(empty.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(empty.message(), "malformed pack_done");

  Rng rng(5);
  SelectionConfig selection;
  selection.fraction = 1e-2;
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
  rpc::Writer id_only;
  id_only.u64(1);  // the consumer's first request id: the cern sub-request
  EXPECT_EQ(send(id_only.take()).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(done);
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(outcome.chunks, 0);
  EXPECT_EQ(outcome.payload_bytes, selection_bytes(f.grid.model(), needed));
  for (const ObjectId id : needed) {
    EXPECT_TRUE(f.grid.site(1).persistency()->available(id));
  }
}

TEST(ObjectReplication, ChunkReplicatedWithoutObjectListIsRefused) {
  // A chunk file lands at its consumer as a first-class logical file, but
  // its catalog entry carries only the object count, not the id list. A
  // third site that pulls it through GDMP must refuse to attach it as a
  // packed file holding no objects: the pull fails, the pool copy goes
  // and no replica is registered.
  ObjRepFixture f(/*pipeline=*/true, /*events=*/20000, /*chunk=*/8 * kMiB,
                  /*consumers=*/2);
  Site& first = f.grid.site(1);
  Site& third = f.grid.site(2);
  Rng rng(5);
  SelectionConfig selection;
  selection.fraction = 2e-3;
  const auto needed = select_objects(f.grid.model(), selection, rng);
  bool replicated = false;
  first.objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> result) {
        replicated = result.is_ok() && result->chunks > 0;
      });
  f.grid.run_until(f.grid.simulator().now() + 3600 * kSecond);
  ASSERT_TRUE(replicated);

  const std::string chunk_prefix = "lfn://cms/" + first.name() + "/objrep/";
  LogicalFileName chunk;
  for (const auto& [lfn, file] : first.gdmp_server().export_catalog()) {
    if (lfn.starts_with(chunk_prefix)) chunk = lfn;
  }
  ASSERT_FALSE(chunk.empty());

  const std::int64_t failures_before =
      third.gdmp_server().stats().replication_failures;
  std::optional<Status> pulled;
  third.gdmp().get_file(chunk, [&](Result<gridftp::TransferResult> r) {
    pulled = r.status();
  });
  f.grid.run_until(f.grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(pulled->code(), ErrorCode::kFailedPrecondition)
      << pulled->to_string();
  EXPECT_FALSE(third.pool().contains(
      third.gdmp_server().local_path_for(chunk)));
  EXPECT_EQ(third.gdmp_server().stats().replication_failures,
            failures_before + 1);

  std::vector<PhysicalFileName> locations;
  third.gdmp_server().catalog().lookup(
      "cms", chunk, [&](Result<core::ReplicaInfo> info) {
        ASSERT_TRUE(info.is_ok()) << info.status().to_string();
        locations = info->locations;
      });
  f.grid.run_until(f.grid.simulator().now() + 60 * kSecond);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_NE(locations[0].find("//" + first.name() + ":"), std::string::npos)
      << locations[0];
}

// Captured on the two-event copier (a disk read event, then a CPU event, per
// object) before chunks became lazy disk runs. A five-chunk pipelined pack
// shares the source disk with the GridFTP read-ahead of the chunks already
// shipped, with one write that lands mid-way through the first chunk's
// run and delays the rest of it, with one read issued at the exact
// nanosecond a later read of that run is issued, and with one read issued
// at the instant the third chunk's run starts, after that run's first read
// (its event is scheduled from the emission callback, so the run's read
// goes first on either copier). The tie read is keyed after the two-event
// copier's CPU event for that instant, so there too the copier's read went
// first: the lazy disk's tie rule. The pack is done when the source's
// copier stats first read non-zero, at the last emission.
TEST(ObjectReplication, PipelinedPackTimelineGolden) {
  ObjRepFixture f(/*pipeline=*/true, 20000, 2 * kMiB);
  Site& source = f.grid.site(0);
  sim::Simulator& simulator = f.grid.simulator();
  storage::Disk& disk = source.pool().disk();
  std::vector<std::pair<std::string, SimTime>> emitted;
  SimTime pack_done = 0;
  SimTime read_done = 0;
  SimTime write_done = 0;
  SimTime tie_done = 0;
  const std::uint64_t observer = source.pool().add_residency_observer(
      [&](std::string_view path, bool resident) {
        if (!resident || !path.starts_with("/pack/req")) return;
        emitted.emplace_back(std::string(path), simulator.now());
        if (emitted.size() == 2) {
          // At the instant the third chunk's run starts, after its first
          // read went in.
          simulator.schedule(0, [&] {
            disk.read(64 * kKiB, [&] { read_done = simulator.now(); });
          });
        }
        simulator.schedule(0, [&] {
          if (pack_done == 0 &&
              source.objrep().copier_stats().objects_copied > 0) {
            pack_done = simulator.now();
          }
        });
      });
  const SimTime start = simulator.now();
  // Mid-way through the first chunk's run: delays every later read of it.
  simulator.schedule_at(start + 500 * kMillisecond + 12'345, [&] {
    disk.write(1 * kMiB, [&] { write_done = simulator.now(); });
  });
  // 703,405,242 ns in, the first chunk's run issues a read; this read is
  // issued at the same nanosecond from an event keyed 1 ns before.
  simulator.schedule_at(start + 703'405'241, [&] {
    simulator.schedule(1, [&] {
      disk.read(64 * kKiB, [&] { tie_done = simulator.now(); });
    });
  });
  Rng rng(8);
  SelectionConfig selection;
  selection.fraction = 5e-2;
  const auto needed = select_objects(f.grid.model(), selection, rng);
  SimTime finished = 0;
  int chunks = 0;
  f.grid.site(1).objrep().replicate_objects(
      needed, [&](Result<ObjectReplicationService::Outcome> r) {
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        finished = simulator.now();
        chunks = r->chunks;
      });
  f.grid.run_until(start + 7200 * kSecond);
  source.pool().remove_residency_observer(observer);

  const std::vector<std::pair<std::string, SimTime>> expected = {
      {"/pack/req1.0", 1'341'325'736}, {"/pack/req1.1", 2'611'445'666},
      {"/pack/req1.2", 3'888'700'129}, {"/pack/req1.3", 5'158'820'059},
      {"/pack/req1.4", 6'294'156'664}};
  ASSERT_EQ(emitted.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(emitted[i].first, expected[i].first);
    EXPECT_EQ(emitted[i].second - start, expected[i].second) << i;
  }
  EXPECT_EQ(pack_done - start, 6'294'156'664);
  EXPECT_EQ(read_done - start, 2'698'944'865);
  EXPECT_EQ(write_done - start, 541'665'252);
  // Behind the run's read of that instant (the other order would end at
  // 710,589,775 ns).
  EXPECT_EQ(tie_done - start, 715'931'108);
  EXPECT_EQ(finished - start, 8'326'464'859);
  EXPECT_EQ(chunks, 5);
  const storage::DiskStats& stats = disk.stats();
  EXPECT_EQ(stats.operations, 1028);
  EXPECT_EQ(stats.bytes_moved, 31'899'648);
  EXPECT_EQ(stats.busy_time, 6'203'321'259);
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
