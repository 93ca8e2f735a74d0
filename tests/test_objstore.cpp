// Tests for the object store: model, catalogs, federation, persistency,
// object copier.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "objstore/object_copier.h"
#include "objstore/persistency.h"

namespace gdmp::objstore {
namespace {

TEST(ObjectModel, IdPackingRoundTrips) {
  const ObjectId id = make_object_id(Tier::kEsd, 123456789);
  EXPECT_EQ(tier_of(id), Tier::kEsd);
  EXPECT_EQ(event_of(id), 123456789);
}

TEST(ObjectModel, StandardTierSizes) {
  const EventModel model = EventModel::standard(1000);
  EXPECT_EQ(model.object_size(make_object_id(Tier::kTag, 0)), 100);
  EXPECT_EQ(model.object_size(make_object_id(Tier::kAod, 0)), 10 * kKiB);
  EXPECT_EQ(model.object_size(make_object_id(Tier::kEsd, 0)), 100 * kKiB);
  EXPECT_EQ(model.object_size(make_object_id(Tier::kRaw, 0)), 1 * kMiB);
  EXPECT_EQ(model.tier_bytes(Tier::kAod), 1000 * 10 * kKiB);
}

TEST(ObjectModel, AssociationsLinkSameEvent) {
  const ObjectId aod = make_object_id(Tier::kAod, 55);
  const ObjectId raw = EventModel::associated(aod, Tier::kRaw);
  EXPECT_EQ(event_of(raw), 55);
  EXPECT_EQ(tier_of(raw), Tier::kRaw);
}

struct CatalogFixture {
  EventModel model = EventModel::standard(10000);
  ObjectFileCatalog catalog;
};

TEST(ObjectFileCatalog, RangeFileLookup) {
  CatalogFixture f;
  ASSERT_TRUE(
      f.catalog.add_range_file("/f0", Tier::kAod, 0, 2000, f.model).is_ok());
  ASSERT_TRUE(
      f.catalog.add_range_file("/f1", Tier::kAod, 2000, 4000, f.model)
          .is_ok());
  const auto locations = f.catalog.locate(make_object_id(Tier::kAod, 2500));
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0].file, "/f1");
  EXPECT_EQ(locations[0].offset, 500 * 10 * kKiB);
  EXPECT_TRUE(f.catalog.locate(make_object_id(Tier::kAod, 4000)).empty());
  EXPECT_TRUE(f.catalog.locate(make_object_id(Tier::kEsd, 100)).empty());
}

TEST(ObjectFileCatalog, PackedFileLookupAndOffsets) {
  CatalogFixture f;
  std::vector<ObjectId> objects = {make_object_id(Tier::kAod, 5),
                                   make_object_id(Tier::kAod, 500),
                                   make_object_id(Tier::kAod, 9000)};
  ASSERT_TRUE(f.catalog.add_packed_file("/packed", objects, f.model).is_ok());
  const auto locations = f.catalog.locate(objects[1]);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0].file, "/packed");
  EXPECT_EQ(locations[0].offset, 10 * kKiB);
  auto payload = f.catalog.file_payload("/packed", f.model);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload, 3 * 10 * kKiB);
}

TEST(ObjectFileCatalog, ObjectInMultipleFiles) {
  CatalogFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 100);
  (void)f.catalog.add_range_file("/range", Tier::kAod, 0, 1000, f.model);
  (void)f.catalog.add_packed_file("/packed", {id}, f.model);
  EXPECT_EQ(f.catalog.locate(id).size(), 2u);
  ASSERT_TRUE(f.catalog.remove_file("/range").is_ok());
  EXPECT_EQ(f.catalog.locate(id).size(), 1u);
  ASSERT_TRUE(f.catalog.remove_file("/packed").is_ok());
  EXPECT_FALSE(f.catalog.contains(id));
}

TEST(ObjectFileCatalog, ObjectsInRangeFileEnumerated) {
  CatalogFixture f;
  (void)f.catalog.add_range_file("/f", Tier::kEsd, 10, 15, f.model);
  auto objects = f.catalog.objects_in("/f");
  ASSERT_TRUE(objects.is_ok());
  ASSERT_EQ(objects->size(), 5u);
  EXPECT_EQ(event_of(objects->front()), 10);
  EXPECT_EQ(event_of(objects->back()), 14);
}

TEST(ObjectFileCatalog, DuplicateRegistrationRejected) {
  CatalogFixture f;
  (void)f.catalog.add_range_file("/f", Tier::kAod, 0, 10, f.model);
  EXPECT_EQ(f.catalog.add_range_file("/f", Tier::kAod, 0, 10, f.model).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(f.catalog.add_packed_file("/f", {}, f.model).code(),
            ErrorCode::kAlreadyExists);
}

// Catalog contract (DESIGN.md §5k): locate() lists range files in
// interval-scan order (latest start first), then packed files in
// registration order, each with its byte offset. The expected values below
// were captured from the string-keyed index this one replaced.
using Located = std::vector<std::pair<std::string, Bytes>>;

Located located(const ObjectFileCatalog& catalog, ObjectId id) {
  Located out;
  for (const ObjectLocation& location : catalog.locate(id)) {
    out.emplace_back(location.file, location.offset);
  }
  return out;
}

TEST(ObjectFileCatalog, LocateOrdersRangeThenPackedFiles) {
  CatalogFixture f;
  const Bytes aod = 10 * kKiB;
  // Nested intervals: every one holding event 160 is reported.
  ASSERT_TRUE(f.catalog.add_range_file("/wide", Tier::kAod, 0, 5000, f.model)
                  .is_ok());
  ASSERT_TRUE(f.catalog.add_range_file("/late", Tier::kAod, 150, 300, f.model)
                  .is_ok());
  ASSERT_TRUE(
      f.catalog.add_range_file("/narrow", Tier::kAod, 100, 400, f.model)
          .is_ok());
  ASSERT_TRUE(f.catalog.add_range_file("/esd", Tier::kEsd, 0, 5000, f.model)
                  .is_ok());
  const ObjectId id = make_object_id(Tier::kAod, 160);
  ASSERT_TRUE(f.catalog
                  .add_packed_file("/pz",
                                   {make_object_id(Tier::kAod, 7), id,
                                    make_object_id(Tier::kEsd, 160)},
                                   f.model)
                  .is_ok());
  ASSERT_TRUE(f.catalog.add_packed_file("/pa", {id}, f.model).is_ok());
  EXPECT_EQ(located(f.catalog, id),
            (Located{{"/late", 10 * aod},
                     {"/narrow", 60 * aod},
                     {"/wide", 160 * aod},
                     {"/pz", aod},
                     {"/pa", 0}}));
  // The ESD object sits behind two AOD objects in the packed layout.
  EXPECT_EQ(located(f.catalog, make_object_id(Tier::kEsd, 160)),
            (Located{{"/esd", 160 * 100 * kKiB}, {"/pz", 2 * aod}}));
  EXPECT_EQ(located(f.catalog, make_object_id(Tier::kAod, 7)),
            (Located{{"/wide", 7 * aod}, {"/pz", 0}}));
  EXPECT_TRUE(located(f.catalog, make_object_id(Tier::kRaw, 160)).empty());
}

// One overlap rule for the range walk: an interval that ends at or before
// the event is skipped, and the walk stops only where no interval up to it
// reaches past the event. /inner nests in /outer, so event 50 lies past
// /inner, the latest start, but inside /outer.
TEST(ObjectFileCatalog, NestedRangeFilesAnswerEveryEvent) {
  CatalogFixture f;
  const Bytes aod = 10 * kKiB;
  const auto check = [&f](std::int64_t event, const Located& expected) {
    const ObjectId id = make_object_id(Tier::kAod, event);
    EXPECT_EQ(located(f.catalog, id), expected) << "event " << event;
    EXPECT_EQ(f.catalog.contains(id), !expected.empty()) << "event " << event;
  };
  ASSERT_TRUE(f.catalog.add_range_file("/outer", Tier::kAod, 0, 100, f.model)
                  .is_ok());
  ASSERT_TRUE(f.catalog.add_range_file("/inner", Tier::kAod, 10, 20, f.model)
                  .is_ok());
  check(5, {{"/outer", 5 * aod}});
  check(15, {{"/inner", 5 * aod}, {"/outer", 15 * aod}});
  check(50, {{"/outer", 50 * aod}});
  check(150, {});

  ASSERT_TRUE(f.catalog.remove_file("/inner").is_ok());
  check(15, {{"/outer", 15 * aod}});
  check(50, {{"/outer", 50 * aod}});
  check(150, {});

  ASSERT_TRUE(f.catalog.add_range_file("/inner", Tier::kAod, 10, 20, f.model)
                  .is_ok());
  ASSERT_TRUE(f.catalog.remove_file("/outer").is_ok());
  check(5, {});
  check(15, {{"/inner", 5 * aod}});
  check(50, {});
  check(150, {});
}

TEST(ObjectFileCatalog, PackedFilesListedInRegistrationOrder) {
  CatalogFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 42);
  const ObjectId other = make_object_id(Tier::kAod, 9);
  ASSERT_TRUE(f.catalog.add_packed_file("/c", {other, id}, f.model).is_ok());
  ASSERT_TRUE(f.catalog.add_packed_file("/a", {id}, f.model).is_ok());
  ASSERT_TRUE(
      f.catalog.add_packed_file("/b", {other, other, id}, f.model).is_ok());
  EXPECT_EQ(located(f.catalog, id),
            (Located{{"/c", 10 * kKiB}, {"/a", 0}, {"/b", 20 * kKiB}}));
}

TEST(ObjectFileCatalog, RemovedThenReaddedFileMovesToTheBack) {
  CatalogFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 42);
  const ObjectId other = make_object_id(Tier::kAod, 9);
  (void)f.catalog.add_packed_file("/c", {id}, f.model);
  (void)f.catalog.add_packed_file("/a", {id, other}, f.model);
  (void)f.catalog.add_packed_file("/b", {id}, f.model);
  ASSERT_TRUE(f.catalog.remove_file("/a").is_ok());
  EXPECT_EQ(located(f.catalog, id), (Located{{"/c", 0}, {"/b", 0}}));
  EXPECT_FALSE(f.catalog.contains(other));
  EXPECT_EQ(f.catalog.remove_file("/a").code(), ErrorCode::kNotFound);
  // Same name, new layout: registered last, offsets from the new layout.
  ASSERT_TRUE(f.catalog.add_packed_file("/a", {other, id}, f.model).is_ok());
  EXPECT_EQ(located(f.catalog, id),
            (Located{{"/c", 0}, {"/b", 0}, {"/a", 10 * kKiB}}));
  EXPECT_EQ(located(f.catalog, other), (Located{{"/a", 0}}));
  EXPECT_EQ(f.catalog.file_count(), 3u);
}

TEST(ObjectFileCatalog, RepeatedIdListsFileAtFirstOccurrence) {
  CatalogFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 42);
  const ObjectId other = make_object_id(Tier::kAod, 9);
  ASSERT_TRUE(
      f.catalog.add_packed_file("/dup", {other, id, other, id}, f.model)
          .is_ok());
  ASSERT_TRUE(f.catalog.add_packed_file("/next", {id}, f.model).is_ok());
  EXPECT_EQ(located(f.catalog, id), (Located{{"/dup", 10 * kKiB},
                                             {"/dup", 10 * kKiB},
                                             {"/next", 0}}));
  EXPECT_EQ(located(f.catalog, other),
            (Located{{"/dup", 0}, {"/dup", 0}}));
  auto payload = f.catalog.file_payload("/dup", f.model);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload, 4 * 10 * kKiB);
  ASSERT_TRUE(f.catalog.remove_file("/dup").is_ok());
  EXPECT_EQ(located(f.catalog, id), (Located{{"/next", 0}}));
  EXPECT_FALSE(f.catalog.contains(other));
}

TEST(ObjectFileCatalog, ContainsAgreesWithLocate) {
  CatalogFixture f;
  (void)f.catalog.add_range_file("/r0", Tier::kAod, 0, 100, f.model);
  (void)f.catalog.add_range_file("/r1", Tier::kAod, 200, 300, f.model);
  (void)f.catalog.add_packed_file(
      "/p", {make_object_id(Tier::kAod, 150), make_object_id(Tier::kTag, 5)},
      f.model);
  (void)f.catalog.add_packed_file("/gone", {make_object_id(Tier::kAod, 160)},
                                  f.model);
  (void)f.catalog.remove_file("/gone");
  for (const Tier tier : kAllTiers) {
    for (std::int64_t event = 0; event < 320; event += 5) {
      const ObjectId id = make_object_id(tier, event);
      EXPECT_EQ(f.catalog.contains(id), !f.catalog.locate(id).empty())
          << tier_name(tier) << " " << event;
    }
  }
  EXPECT_TRUE(f.catalog.contains(make_object_id(Tier::kAod, 150)));
  EXPECT_FALSE(f.catalog.contains(make_object_id(Tier::kAod, 160)));
  EXPECT_FALSE(f.catalog.contains(make_object_id(Tier::kAod, 100)));
}

// Randomised churn against a reference that recomputes locate() from the
// live packed files by brute force: registration order, repeated ids and
// offsets must survive table growth, slot reuse and removals.
TEST(ObjectFileCatalog, PackedChurnMatchesBruteForceReference) {
  CatalogFixture f;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto random_id = [&] {
    return make_object_id(next(2) == 0 ? Tier::kAod : Tier::kEsd,
                          static_cast<std::int64_t>(next(4000)));
  };
  std::vector<std::pair<std::string, std::vector<ObjectId>>> live;
  const auto reference = [&](ObjectId id) {
    Located out;
    for (const auto& [file, objects] : live) {
      Bytes offset = 0;
      Bytes first = -1;
      for (const ObjectId o : objects) {
        if (o == id) {
          if (first < 0) first = offset;
          out.emplace_back(file, first);
        }
        offset += f.model.object_size(o);
      }
    }
    return out;
  };
  const auto check = [&](ObjectId id) {
    const Located expected = reference(id);
    EXPECT_EQ(located(f.catalog, id), expected);
    EXPECT_EQ(f.catalog.contains(id), !expected.empty());
  };
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || next(3) != 0) {
      std::vector<ObjectId> objects(1 + next(60));
      for (ObjectId& id : objects) id = random_id();
      if (next(4) == 0) objects.push_back(objects.front());  // repeated id
      const std::string name = "/p" + std::to_string(next(400));
      if (f.catalog.has_file(name)) continue;
      ASSERT_TRUE(f.catalog.add_packed_file(name, objects, f.model).is_ok());
      live.emplace_back(name, std::move(objects));
    } else {
      const std::size_t victim = next(live.size());
      ASSERT_TRUE(f.catalog.remove_file(live[victim].first).is_ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    for (int probe = 0; probe < 4; ++probe) check(random_id());
    if (!live.empty()) check(live.back().second.front());
  }
  while (!live.empty()) {
    const std::vector<ObjectId> objects = live.front().second;
    ASSERT_TRUE(f.catalog.remove_file(live.front().first).is_ok());
    live.erase(live.begin());
    for (const ObjectId id : objects) check(id);
  }
  EXPECT_EQ(f.catalog.file_count(), 0u);
}

// Seeded layouts with every overlap the lookup must answer: range files of
// two tiers that nest, overlap, share starts, and are removed and
// registered again, mixed with contiguous and scattered packed files.
// locate() (files, order and offsets) and contains() must equal a scan of
// every live file.
TEST(ObjectFileCatalog, OverlappingLayoutsMatchBruteForceReference) {
  CatalogFixture f;
  std::uint64_t x = 0x853c49e6748fea9bULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto random_tier = [&] {
    return next(2) == 0 ? Tier::kAod : Tier::kEsd;
  };
  struct LiveFile {
    std::string name;
    bool range;
    Tier tier;                     // range files
    std::int64_t event_lo;         // range files
    std::int64_t event_hi;         // range files
    std::vector<ObjectId> objects;  // packed files
  };
  std::vector<LiveFile> live;  // registration order
  const auto reference = [&](ObjectId id) {
    const std::int64_t event = event_of(id);
    // Range files, latest start first; of equal starts, the latest
    // registered first.
    std::vector<const LiveFile*> ranges;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
      if (it->range && it->tier == tier_of(id) && it->event_lo <= event &&
          event < it->event_hi) {
        ranges.push_back(&*it);
      }
    }
    std::stable_sort(ranges.begin(), ranges.end(),
                     [](const LiveFile* a, const LiveFile* b) {
                       return a->event_lo > b->event_lo;
                     });
    Located out;
    for (const LiveFile* file : ranges) {
      out.emplace_back(file->name,
                       (event - file->event_lo) * f.model.object_size(id));
    }
    for (const LiveFile& file : live) {
      Bytes offset = 0;
      Bytes first = -1;
      for (const ObjectId o : file.objects) {
        if (o == id) {
          if (first < 0) first = offset;
          out.emplace_back(file.name, first);
        }
        offset += f.model.object_size(o);
      }
    }
    return out;
  };
  // Probes where a range file holding the id starts at or before another
  // that ends at or before the event: the walk must step past the latter.
  std::int64_t nested_hits = 0;
  const auto check = [&](ObjectId id) {
    const Located expected = reference(id);
    ASSERT_EQ(located(f.catalog, id), expected)
        << tier_name(tier_of(id)) << " " << event_of(id);
    ASSERT_EQ(f.catalog.contains(id), !expected.empty());
    const std::int64_t event = event_of(id);
    std::int64_t first_holder = event + 1;
    for (const LiveFile& file : live) {
      if (file.range && file.tier == tier_of(id) && file.event_lo <= event &&
          event < file.event_hi) {
        first_holder = std::min(first_holder, file.event_lo);
      }
    }
    nested_hits += std::any_of(
        live.begin(), live.end(), [&](const LiveFile& file) {
          return file.range && file.tier == tier_of(id) &&
                 file.event_lo >= first_holder && file.event_hi <= event;
        });
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = next(20);
    if (action < 9) {
      const std::string name = "/r" + std::to_string(next(60));
      const auto lo = static_cast<std::int64_t>(next(300));
      const auto length =
          static_cast<std::int64_t>(1 + next(next(4) == 0 ? 200 : 20));
      const Tier tier = random_tier();
      if (f.catalog.has_file(name)) continue;
      ASSERT_TRUE(
          f.catalog.add_range_file(name, tier, lo, lo + length, f.model)
              .is_ok());
      live.push_back({name, true, tier, lo, lo + length, {}});
    } else if (action < 14) {
      const std::string name = "/p" + std::to_string(next(60));
      std::vector<ObjectId> objects(1 + next(30));
      if (next(2) == 0) {  // contiguous, as a copier run of one tier
        const Tier tier = random_tier();
        const auto first = static_cast<std::int64_t>(next(500));
        for (std::size_t i = 0; i < objects.size(); ++i) {
          objects[i] =
              make_object_id(tier, first + static_cast<std::int64_t>(i));
        }
      } else {
        for (ObjectId& id : objects) {
          id = make_object_id(random_tier(),
                              static_cast<std::int64_t>(next(520)));
        }
      }
      if (f.catalog.has_file(name)) continue;
      ASSERT_TRUE(f.catalog.add_packed_file(name, objects, f.model).is_ok());
      live.push_back({name, false, Tier::kTag, 0, 0, std::move(objects)});
    } else if (!live.empty()) {
      const std::size_t victim = next(live.size());
      ASSERT_TRUE(f.catalog.remove_file(live[victim].name).is_ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    for (int probe = 0; probe < 6; ++probe) {
      check(make_object_id(random_tier(),
                           static_cast<std::int64_t>(next(520))));
    }
    if (!live.empty() && live.back().range) {
      const LiveFile& file = live.back();
      for (const std::int64_t event :
           {file.event_lo, file.event_hi - 1, file.event_hi}) {
        check(make_object_id(file.tier, event));
      }
    }
  }
  while (!live.empty()) {
    const LiveFile file = live.front();
    ASSERT_TRUE(f.catalog.remove_file(file.name).is_ok());
    live.erase(live.begin());
    for (std::int64_t event = file.event_lo; event <= file.event_hi; ++event) {
      check(make_object_id(file.tier, event));
    }
  }
  EXPECT_EQ(f.catalog.file_count(), 0u);
  EXPECT_GT(nested_hits, 1000);  // the layouts do exercise the overlap rule
}

struct FederationFixture {
  sim::Simulator simulator;
  storage::Disk disk{simulator, storage::DiskConfig{}};
  storage::DiskPool pool{100 * kGiB, disk};
  EventModel model = EventModel::standard(10000);
  Federation federation{"test-fd", model, pool};
};

TEST(Federation, AttachRequiresLocalFile) {
  FederationFixture f;
  EXPECT_EQ(
      f.federation.attach_range_file("/ghost", Tier::kAod, 0, 100).code(),
      ErrorCode::kFailedPrecondition);
  (void)f.pool.add_file("/db", 100 * 10 * kKiB, 1, 0);
  EXPECT_TRUE(
      f.federation.attach_range_file("/db", Tier::kAod, 0, 100).is_ok());
  EXPECT_TRUE(f.federation.is_attached("/db"));
}

TEST(Federation, SchemaVersionGatesAttach) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 1000, 1, 0);
  EXPECT_EQ(f.federation
                .attach_range_file("/db", Tier::kAod, 0, 100, /*schema=*/3)
                .code(),
            ErrorCode::kFailedPrecondition);
  f.federation.upgrade_schema(3);
  EXPECT_TRUE(
      f.federation.attach_range_file("/db", Tier::kAod, 0, 100, 3).is_ok());
}

TEST(Federation, HasLocalNeedsAnAttachedFileOnDisk) {
  FederationFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 50);
  (void)f.pool.add_file("/db", 100 * 10 * kKiB, 1, 0);
  (void)f.pool.add_file("/packed", 10 * kKiB, 2, 0);
  ASSERT_TRUE(
      f.federation.attach_range_file("/db", Tier::kAod, 0, 100).is_ok());
  ASSERT_TRUE(f.federation.attach_packed_file("/packed", {id}).is_ok());
  EXPECT_TRUE(f.federation.has_local(id));
  EXPECT_FALSE(f.federation.has_local(make_object_id(Tier::kAod, 100)));
  // Gone from the pool but still attached: the packed copy keeps it local.
  ASSERT_TRUE(f.pool.remove("/db").is_ok());
  EXPECT_TRUE(f.federation.is_attached("/db"));
  EXPECT_TRUE(f.federation.has_local(id));
  EXPECT_FALSE(f.federation.has_local(make_object_id(Tier::kAod, 49)));
  ASSERT_TRUE(f.pool.remove("/packed").is_ok());
  EXPECT_FALSE(f.federation.has_local(id));
  EXPECT_TRUE(f.federation.catalog().contains(id));
}

// NestedRangeFilesAnswerEveryEvent's layout on disk: with either file
// evicted, the other still answers for every event it holds, including
// those past the end of the nested /inner.
TEST(Federation, NestedRangeFilesAnswerPastAnEvictedOne) {
  const auto aod = [](std::int64_t event) {
    return make_object_id(Tier::kAod, event);
  };
  const std::vector<ObjectId> ids = {aod(5), aod(15), aod(50), aod(150)};
  for (const bool evict_inner : {true, false}) {
    FederationFixture f;
    ASSERT_TRUE(f.pool.add_file("/outer", 100 * 10 * kKiB, 1, 0).is_ok());
    ASSERT_TRUE(f.pool.add_file("/inner", 10 * 10 * kKiB, 2, 0).is_ok());
    ASSERT_TRUE(
        f.federation.attach_range_file("/outer", Tier::kAod, 0, 100).is_ok());
    ASSERT_TRUE(
        f.federation.attach_range_file("/inner", Tier::kAod, 10, 20).is_ok());
    ASSERT_TRUE(f.pool.remove(evict_inner ? "/inner" : "/outer").is_ok());
    EXPECT_EQ(f.federation.has_local(aod(5)), evict_inner);
    EXPECT_TRUE(f.federation.has_local(aod(15)));
    EXPECT_EQ(f.federation.has_local(aod(50)), evict_inner);
    EXPECT_FALSE(f.federation.has_local(aod(150)));
    const std::vector<ObjectId> missing =
        evict_inner ? std::vector<ObjectId>{aod(150)}
                    : std::vector<ObjectId>{aod(5), aod(50), aod(150)};
    EXPECT_EQ(f.federation.missing(ids), missing);
  }
}

// Residency contract (DESIGN.md §5k): each attached file's bit follows
// pool membership, so has_local() and missing() give the answer of a
// per-file pool search. That definition, by brute force:
bool held_by_search(Federation& federation, ObjectId id) {
  return federation.catalog().visit_locations(
      id, [&](const std::string& file, Bytes, bool) {
        return federation.pool().contains(file);
      });
}

/// The residency bit of `file`'s entry as `id` visits it.
bool resident_bit(const Federation& federation, const std::string& file,
                  ObjectId id) {
  bool bit = false;
  const bool found = federation.catalog().visit_locations(
      id, [&](const std::string& visited, Bytes, bool resident) {
        bit = resident;
        return visited == file;
      });
  EXPECT_TRUE(found) << file;
  return bit;
}

TEST(Federation, EvictionClearsResidencyBit) {
  FederationFixture f;
  storage::DiskPool pool{2 * 10 * kKiB, f.disk};
  Federation federation{"small-fd", f.model, pool};
  const ObjectId a = make_object_id(Tier::kAod, 1);
  const ObjectId b = make_object_id(Tier::kAod, 2);
  ASSERT_TRUE(pool.add_file("/a", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(federation.attach_packed_file("/a", {a}).is_ok());
  ASSERT_TRUE(pool.add_file("/b", 10 * kKiB, 2, 0).is_ok());
  ASSERT_TRUE(federation.attach_packed_file("/b", {b}).is_ok());
  EXPECT_TRUE(resident_bit(federation, "/a", a));
  // A third file evicts the least recently used one, /a.
  ASSERT_TRUE(pool.add_file("/c", 10 * kKiB, 3, 0).is_ok());
  ASSERT_FALSE(pool.contains("/a"));
  EXPECT_TRUE(federation.is_attached("/a"));
  EXPECT_FALSE(resident_bit(federation, "/a", a));
  EXPECT_FALSE(federation.has_local(a));
  EXPECT_TRUE(federation.has_local(b));
}

TEST(Federation, ReaddingPathSetsResidencyAgain) {
  FederationFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 50);
  ASSERT_TRUE(f.pool.add_file("/db", 100 * 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(
      f.federation.attach_range_file("/db", Tier::kAod, 0, 100).is_ok());
  ASSERT_TRUE(f.pool.remove("/db").is_ok());
  EXPECT_FALSE(resident_bit(f.federation, "/db", id));
  EXPECT_FALSE(f.federation.has_local(id));
  ASSERT_TRUE(f.pool.add_file("/db", 100 * 10 * kKiB, 1, 0).is_ok());
  EXPECT_TRUE(resident_bit(f.federation, "/db", id));
  EXPECT_TRUE(f.federation.has_local(id));
}

TEST(Federation, ReplacingPathKeepsResidency) {
  FederationFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 7);
  ASSERT_TRUE(f.pool.add_file("/p", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(f.federation.attach_packed_file("/p", {id}).is_ok());
  ASSERT_TRUE(f.pool.add_file("/p", 20 * kKiB, 2, 0).is_ok());  // replace
  ASSERT_TRUE(f.pool.pin("/p").is_ok());
  ASSERT_TRUE(f.pool.set_content("/p", 30 * kKiB, 3, 0).is_ok());
  ASSERT_TRUE(f.pool.unpin("/p").is_ok());
  EXPECT_TRUE(resident_bit(f.federation, "/p", id));
  EXPECT_TRUE(f.federation.has_local(id));
}

TEST(Federation, DetachThenReaddLeavesNoStaleBit) {
  FederationFixture f;
  const ObjectId id = make_object_id(Tier::kAod, 7);
  ASSERT_TRUE(f.pool.add_file("/p", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(f.federation.attach_packed_file("/p", {id}).is_ok());
  ASSERT_TRUE(f.federation.detach("/p").is_ok());
  // The pool's churn of a detached path reaches no catalog entry.
  ASSERT_TRUE(f.pool.remove("/p").is_ok());
  ASSERT_TRUE(f.pool.add_file("/p", 10 * kKiB, 1, 0).is_ok());
  EXPECT_FALSE(f.federation.has_local(id));
  ASSERT_TRUE(f.pool.remove("/p").is_ok());
  // Re-attaching needs the pool copy back, and then the bit is set.
  EXPECT_EQ(f.federation.attach_packed_file("/p", {id}).code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(f.pool.add_file("/p", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(f.federation.attach_packed_file("/p", {id}).is_ok());
  EXPECT_TRUE(resident_bit(f.federation, "/p", id));
  // Detached while off disk, re-attached once back: set again.
  ASSERT_TRUE(f.pool.remove("/p").is_ok());
  ASSERT_TRUE(f.federation.detach("/p").is_ok());
  ASSERT_TRUE(f.pool.add_file("/p", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(f.federation.attach_packed_file("/p", {id}).is_ok());
  EXPECT_TRUE(f.federation.has_local(id));
}

TEST(Federation, DestroyedBeforePoolLeavesPoolClean) {
  // The federation clears the pool's observer when it dies; a later pool
  // mutation that would have reported residency must not reach it (a hard
  // use-after-free check under the asan preset).
  FederationFixture f;
  storage::DiskPool pool{2 * 10 * kKiB, f.disk};
  auto federation = std::make_unique<Federation>("doomed-fd", f.model, pool);
  ASSERT_TRUE(pool.add_file("/a", 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(federation
                  ->attach_packed_file("/a", {make_object_id(Tier::kAod, 1)})
                  .is_ok());
  federation.reset();
  ASSERT_TRUE(pool.add_file("/b", 10 * kKiB, 2, 0).is_ok());
  ASSERT_TRUE(pool.add_file("/c", 10 * kKiB, 3, 0).is_ok());  // evicts /a
  EXPECT_FALSE(pool.contains("/a"));
  EXPECT_TRUE(pool.remove("/b").is_ok());
}

// Seeded churn over a small pool: add_file evicts through make_room, and
// remove, re-add, pin/unpin, replacement, set_content, reservations and
// attach/detach of range and packed files are mixed in. After every step
// has_local() and missing() must equal the brute-force pool search.
TEST(Federation, ResidencyMatchesPoolSearchUnderChurn) {
  FederationFixture f;
  constexpr Bytes kUnit = 10 * 10 * kKiB;  // one 10-object AOD range file
  storage::DiskPool pool{6 * kUnit, f.disk};
  Federation federation{"churn-fd", f.model, pool};
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  constexpr int kPaths = 12;
  const auto path = [](std::uint64_t i) { return "/f" + std::to_string(i); };
  std::vector<ObjectId> ids;
  for (std::int64_t e = 0; e < 10 * kPaths; e += 3) {
    ids.push_back(make_object_id(Tier::kAod, e));
  }
  ids.push_back(make_object_id(Tier::kEsd, 4));
  ids.push_back(ids.front());  // a duplicate
  int evictions_seen = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::string name = path(next(kPaths));
    const std::int64_t before_evictions = pool.stats().evictions;
    switch (next(9)) {
      case 0:
      case 1:  // create or replace, sometimes pinned
        (void)pool.add_file(name, kUnit * static_cast<Bytes>(1 + next(2)),
                            next(1000), 0, next(4) == 0);
        break;
      case 2:
        (void)pool.remove(name);
        break;
      case 3:
        (void)(next(2) == 0 ? pool.pin(name) : pool.unpin(name));
        break;
      case 4: {  // the i-th range file holds events [10 i, 10 i + 10)
        const std::int64_t lo = 10 * std::stoll(name.substr(2));
        (void)federation.attach_range_file(name, Tier::kAod, lo, lo + 10);
        break;
      }
      case 5: {
        std::vector<ObjectId> objects(1 + next(6));
        for (ObjectId& id : objects) {
          id = make_object_id(Tier::kAod,
                              static_cast<std::int64_t>(next(10 * kPaths)));
        }
        (void)federation.attach_packed_file(name, std::move(objects));
        break;
      }
      case 6:
        (void)federation.detach(name);
        break;
      case 7:
        (void)pool.set_content(name, kUnit * static_cast<Bytes>(1 + next(3)),
                               next(1000), 0);
        break;
      default:  // a reservation evicts like an add
        if (pool.reserve(kUnit * static_cast<Bytes>(1 + next(3))).is_ok()) {
          pool.release_reservation(pool.reserved_bytes());
        }
        break;
    }
    if (pool.stats().evictions > before_evictions) ++evictions_seen;
    std::vector<ObjectId> expected;
    for (const ObjectId id : ids) {
      const bool held = held_by_search(federation, id);
      ASSERT_EQ(federation.has_local(id), held)
          << "step " << step << " event " << event_of(id);
      if (!held) expected.push_back(id);
    }
    ASSERT_EQ(federation.missing(ids), expected) << "step " << step;
  }
  EXPECT_GT(evictions_seen, 100);
}

TEST(Federation, MissingKeepsInputOrderAndDuplicates) {
  FederationFixture f;
  ASSERT_TRUE(f.pool.add_file("/db", 100 * 10 * kKiB, 1, 0).is_ok());
  ASSERT_TRUE(
      f.federation.attach_range_file("/db", Tier::kAod, 0, 100).is_ok());
  const ObjectId held = make_object_id(Tier::kAod, 10);
  const ObjectId far = make_object_id(Tier::kAod, 900);
  const ObjectId esd = make_object_id(Tier::kEsd, 10);
  const std::vector<ObjectId> ids = {far, held, esd, far, held};
  EXPECT_EQ(f.federation.missing(ids), (std::vector<ObjectId>{far, esd, far}));
  EXPECT_TRUE(f.federation.missing({}).empty());
  EXPECT_TRUE(f.federation.missing(std::vector<ObjectId>{held, held}).empty());
}

// Collective-lookup cursor (DESIGN.md §5k): resuming each tier's interval
// walk from id to id visits exactly the files a fresh per-id walk visits, in
// the same order, whether the batch ascends, descends, repeats ids or
// interleaves tiers; missing() agrees with per-id has_local(). The layouts
// nest and overlap range files of two tiers, some evicted from the pool,
// beside packed files.
TEST(Federation, CursorWalkAgreesWithPerIdWalk) {
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto random_tier = [&] {
    return next(2) == 0 ? Tier::kAod : Tier::kEsd;
  };
  const auto visits = [](const ObjectFileCatalog& catalog, ObjectId id,
                         ObjectFileCatalog::Cursor* cursor) {
    Located out;
    const auto collect = [&out](const std::string& file, Bytes offset, bool) {
      out.emplace_back(file, offset);
      return false;
    };
    if (cursor != nullptr) {
      catalog.visit_locations(id, *cursor, collect);
    } else {
      catalog.visit_locations(id, collect);
    }
    return out;
  };
  std::int64_t resumed = 0;  // ids answered without a binary search
  for (int layout = 0; layout < 12; ++layout) {
    FederationFixture f;
    const int ranges = 5 + static_cast<int>(next(40));
    for (int r = 0; r < ranges; ++r) {
      const std::string name = "/r" + std::to_string(r);
      const Tier tier = random_tier();
      const auto lo = static_cast<std::int64_t>(next(2000));
      const auto length =
          static_cast<std::int64_t>(1 + next(next(4) == 0 ? 1500 : 60));
      ASSERT_TRUE(f.pool.add_file(name, 1, 1, 0).is_ok());
      ASSERT_TRUE(
          f.federation.attach_range_file(name, tier, lo, lo + length).is_ok());
      if (next(4) == 0) {
        ASSERT_TRUE(f.pool.remove(name).is_ok());
      }
    }
    const int packed = static_cast<int>(next(12));
    for (int p = 0; p < packed; ++p) {
      const std::string name = "/p" + std::to_string(p);
      std::vector<ObjectId> objects(1 + next(40));
      for (ObjectId& id : objects) {
        id = make_object_id(random_tier(), static_cast<std::int64_t>(next(2100)));
      }
      ASSERT_TRUE(f.pool.add_file(name, 1, 2, 0).is_ok());
      ASSERT_TRUE(f.federation.attach_packed_file(name, objects).is_ok());
      if (next(4) == 0) {
        ASSERT_TRUE(f.pool.remove(name).is_ok());
      }
    }
    const ObjectFileCatalog& catalog = f.federation.catalog();
    for (int batch = 0; batch < 30; ++batch) {
      std::vector<ObjectId> ids(1 + next(200));
      for (ObjectId& id : ids) {
        const Tier tier = next(10) == 0 ? Tier::kRaw : random_tier();
        id = make_object_id(tier, static_cast<std::int64_t>(next(2200)));
      }
      const auto by_event = [](ObjectId a, ObjectId b) {
        return event_of(a) < event_of(b);
      };
      switch (batch % 5) {
        case 0:  // ascending: one tier after the other
          std::sort(ids.begin(), ids.end());
          break;
        case 1:  // descending: every id searches again
          std::sort(ids.rbegin(), ids.rend());
          break;
        case 2:  // ascending, each id repeated up to three times
          for (std::size_t i = 0, n = ids.size(); i < n; ++i) {
            for (std::uint64_t k = next(3); k > 0; --k) ids.push_back(ids[i]);
          }
          std::sort(ids.begin(), ids.end());
          break;
        case 3:  // ascending events with the tiers interleaved
          std::stable_sort(ids.begin(), ids.end(), by_event);
          break;
        default:  // shuffled
          break;
      }
      ObjectFileCatalog::Cursor walk;
      ObjectFileCatalog::Cursor probe;
      std::vector<ObjectId> expected;
      std::array<std::int64_t, 4> last{-1, -1, -1, -1};
      for (const ObjectId id : ids) {
        ASSERT_EQ(visits(catalog, id, &walk), visits(catalog, id, nullptr))
            << "layout " << layout << " batch " << batch << " "
            << tier_name(tier_of(id)) << " " << event_of(id);
        ASSERT_EQ(catalog.contains(id, probe), catalog.contains(id));
        auto& seen = last[static_cast<std::size_t>(tier_of(id))];
        resumed += event_of(id) >= seen && seen >= 0;
        seen = event_of(id);
        if (!f.federation.has_local(id)) expected.push_back(id);
      }
      ASSERT_EQ(f.federation.missing(ids), expected)
          << "layout " << layout << " batch " << batch;
    }
  }
  EXPECT_GT(resumed, 10'000);
}

TEST(Persistency, ReadsLocallyAvailableObject) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 1000 * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 1000);
  PersistencyLayer persistency(f.simulator, f.federation);
  Bytes read = 0;
  persistency.read_object(make_object_id(Tier::kAod, 500),
                          [&](Result<Bytes> r) { read = r.value_or(0); });
  f.simulator.run();
  EXPECT_EQ(read, 10 * kKiB);
  EXPECT_EQ(persistency.stats().reads, 1);
}

TEST(Persistency, MissingObjectFails) {
  FederationFixture f;
  PersistencyLayer persistency(f.simulator, f.federation);
  Status status = Status::ok();
  persistency.read_object(make_object_id(Tier::kAod, 1),
                          [&](Result<Bytes> r) { status = r.status(); });
  f.simulator.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(Persistency, NavigationFailsWithoutAssociatedFile) {
  // The §2.1 coupling: AOD attached, ESD not — navigation must fail.
  FederationFixture f;
  (void)f.pool.add_file("/aod", 1000 * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/aod", Tier::kAod, 0, 1000);
  PersistencyLayer persistency(f.simulator, f.federation);
  Status status = Status::ok();
  persistency.navigate(make_object_id(Tier::kAod, 10), Tier::kEsd,
                       [&](Result<Bytes> r) { status = r.status(); });
  f.simulator.run();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(persistency.stats().navigation_failures, 1);

  // Replicating the associated file repairs navigation.
  (void)f.pool.add_file("/esd", 1000 * 100 * kKiB, 2, 0);
  (void)f.federation.attach_range_file("/esd", Tier::kEsd, 0, 1000);
  Bytes read = 0;
  persistency.navigate(make_object_id(Tier::kAod, 10), Tier::kEsd,
                       [&](Result<Bytes> r) { read = r.value_or(0); });
  f.simulator.run();
  EXPECT_EQ(read, 100 * kKiB);
}

TEST(ObjectCopier, PacksSelectionIntoChunks) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 10000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 10000);
  CopierConfig config;
  config.max_output_file = 100 * 10 * kKiB;  // 100 objects per chunk
  ObjectCopier copier(f.simulator, f.federation, config);
  std::vector<ObjectId> selection;
  for (int e = 0; e < 250; ++e) {
    selection.push_back(make_object_id(Tier::kAod, e * 37 % 10000));
  }
  std::vector<PackedOutput> chunks;
  Status final_status = make_error(ErrorCode::kInternal, "pending");
  copier.pack(selection, "/pack/sel",
              [&](const PackedOutput& chunk) { chunks.push_back(chunk); },
              [&](Status s) { final_status = s; });
  f.simulator.run();
  ASSERT_TRUE(final_status.is_ok());
  ASSERT_EQ(chunks.size(), 3u);  // 100 + 100 + 50
  std::size_t objects_total = 0;
  for (const PackedOutput& chunk : chunks) {
    objects_total += chunk.objects.size();
    EXPECT_TRUE(f.pool.contains(chunk.file.path));
    EXPECT_TRUE(f.federation.is_attached(chunk.file.path));
  }
  EXPECT_EQ(objects_total, selection.size());
  EXPECT_EQ(copier.stats().objects_copied, 250);
  EXPECT_EQ(copier.stats().bytes_copied, 250LL * 10 * kKiB);
  EXPECT_GT(copier.stats().cpu_time, 0);
}

TEST(ObjectCopier, PackedChunksAreExtractionSources) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 1000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 1000);
  ObjectCopier copier(f.simulator, f.federation);
  const std::vector<ObjectId> selection = {make_object_id(Tier::kAod, 3),
                                           make_object_id(Tier::kAod, 700)};
  copier.pack(selection, "/pack/x", nullptr, [](Status) {});
  f.simulator.run();
  // The packed copy plus the original range file both hold object 3.
  EXPECT_EQ(f.federation.catalog().locate(selection[0]).size(), 2u);
}

TEST(ObjectCopier, UnavailableObjectRejected) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 1000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 1000);
  ObjectCopier copier(f.simulator, f.federation);
  const ObjectId first_absent = make_object_id(Tier::kRaw, 1);
  Status status = Status::ok();
  copier.pack({make_object_id(Tier::kAod, 3), first_absent,
               make_object_id(Tier::kAod, 4), make_object_id(Tier::kEsd, 2)},
              "/pack/y", nullptr, [&](Status s) { status = s; });
  f.simulator.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "object " + std::to_string(first_absent.value) +
                                  " not locally available for packing");
  EXPECT_EQ(copier.stats().objects_copied, 0);
}

TEST(ObjectCopier, SurvivesDestructionMidPack) {
  // The copier's pump schedules disk reads and CPU charges whose completions
  // stay queued in the simulator after the copier dies. The alive_ sentinel
  // must make them no-ops — under the asan preset this is a hard
  // use-after-free check (the PR 1 bug class).
  FederationFixture f;
  (void)f.pool.add_file("/db", 10000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 10000);
  auto copier = std::make_unique<ObjectCopier>(f.simulator, f.federation);
  std::vector<ObjectId> selection;
  for (int e = 0; e < 500; ++e) {
    selection.push_back(make_object_id(Tier::kAod, e * 13 % 10000));
  }
  bool completed = false;
  copier->pack(selection, "/pack/doomed", nullptr,
               [&](Status) { completed = true; });
  // Advance far enough for reads to be in flight, then destroy the copier
  // with completions still queued.
  f.simulator.run_until(f.simulator.now() + 1 * kMillisecond);
  copier.reset();
  f.simulator.run();
  EXPECT_FALSE(completed);  // the orphaned completion chain went quiet
}

TEST(ObjectCopier, DiskIoChargedPerObject) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 1000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 1000);
  const auto ops_before = f.disk.stats().operations;
  ObjectCopier copier(f.simulator, f.federation);
  std::vector<ObjectId> selection;
  for (int e = 0; e < 50; ++e) {
    selection.push_back(make_object_id(Tier::kAod, e * 17 % 1000));
  }
  copier.pack(selection, "/pack/z", nullptr, [](Status) {});
  f.simulator.run();
  // 50 per-object reads plus chunk write(s): many small I/Os — the §5.3
  // overhead signature.
  EXPECT_GE(f.disk.stats().operations - ops_before, 51);
}

// An undisturbed pack fires two kernel events per chunk: its disk run's
// completion and its chunk write's (the two-event copier fired one read
// event and one CPU event per object). The done time is the per-object
// arithmetic plus the two chunk writes the next chunk's first read waits
// behind.
TEST(ObjectCopier, UndisturbedPackFiresTwoEventsPerChunk) {
  FederationFixture f;
  (void)f.pool.add_file("/db", 10000LL * 10 * kKiB, 1, 0);
  (void)f.federation.attach_range_file("/db", Tier::kAod, 0, 10000);
  CopierConfig config;
  config.max_output_file = 100 * 10 * kKiB;  // 100 objects per chunk
  ObjectCopier copier(f.simulator, f.federation, config);
  std::vector<ObjectId> selection;
  for (int e = 0; e < 250; ++e) {
    selection.push_back(make_object_id(Tier::kAod, e * 37 % 10000));
  }
  int chunks = 0;
  SimTime done_at = -1;
  const std::uint64_t before = f.simulator.events_fired();
  copier.pack(selection, "/pack/quiet",
              [&](const PackedOutput&) { ++chunks; },
              [&](Status s) {
                EXPECT_TRUE(s.is_ok());
                done_at = f.simulator.now();
              });
  f.simulator.run();
  EXPECT_EQ(chunks, 3);
  EXPECT_EQ(f.simulator.events_fired() - before, 2u * 3);
  const storage::DiskConfig disk;
  const auto service = [&disk](Bytes bytes) {
    return disk.seek_latency + transmission_delay(bytes, disk.bandwidth);
  };
  constexpr SimDuration kCpuPerObject = 50 * kMicrosecond;
  EXPECT_EQ(done_at, 250 * (service(10 * kKiB) + kCpuPerObject) +
                         2 * service(100 * 10 * kKiB));
  EXPECT_EQ(f.disk.stats().operations, 250 + 3);
}

// ---- lazy disk runs against the two-event reference model

/// The disk as it was before lazy runs: each request takes the head when
/// it is issued and fires its own kernel event.
class TwoEventDisk {
 public:
  TwoEventDisk(sim::Simulator& simulator, storage::DiskConfig config)
      : simulator_(simulator), config_(config) {}

  void submit(Bytes bytes, sim::Callback done) {
    const SimTime start = std::max(busy_until_, simulator_.now());
    const SimDuration service =
        config_.seek_latency + transmission_delay(bytes, config_.bandwidth);
    busy_until_ = start + service;
    ++stats_.operations;
    stats_.bytes_moved += bytes;
    stats_.busy_time += service;
    simulator_.schedule_at(busy_until_, std::move(done));
  }
  const storage::DiskStats& stats() const noexcept { return stats_; }

 private:
  sim::Simulator& simulator_;
  storage::DiskConfig config_;
  storage::DiskStats stats_;
  SimTime busy_until_ = 0;
};

/// The copier as it was before chunks became disk runs: per object, a read
/// event, then a CPU-charge event that adds the object to the chunk, emits
/// a full chunk (one write) and issues the next read. Destroying it leaves
/// its pending events to fall silent. Each read's issue time is appended to
/// `issued`.
class TwoEventCopier {
 public:
  using OnChunk = std::function<void(const std::vector<ObjectId>&)>;

  TwoEventCopier(sim::Simulator& simulator, TwoEventDisk& disk,
                 const EventModel& model, Bytes max_output_file,
                 std::vector<SimTime>& issued)
      : simulator_(simulator),
        disk_(disk),
        model_(model),
        max_output_file_(max_output_file),
        issued_(issued) {}

  void pack(std::vector<ObjectId> objects, OnChunk on_chunk,
            std::function<void()> done) {
    auto job = std::make_shared<Job>();
    job->objects = std::move(objects);
    job->on_chunk = std::move(on_chunk);
    job->done = std::move(done);
    pump(job);
  }

 private:
  static constexpr SimDuration kCpuPerObject = 50 * kMicrosecond;

  struct Job {
    std::vector<ObjectId> objects;
    std::size_t next = 0;
    std::vector<ObjectId> chunk;
    Bytes chunk_bytes = 0;
    OnChunk on_chunk;
    std::function<void()> done;
  };

  void pump(const std::shared_ptr<Job>& job) {
    if (job->next == job->objects.size()) {
      if (!job->chunk.empty()) emit(job);
      job->done();
      return;
    }
    const ObjectId id = job->objects[job->next++];
    const Bytes size = model_.object_size(id);
    std::weak_ptr<bool> alive = alive_;
    issued_.push_back(simulator_.now());
    disk_.submit(size, [this, alive, job, id, size] {
      if (alive.expired()) return;
      simulator_.schedule(kCpuPerObject, [this, alive, job, id, size] {
        if (alive.expired()) return;
        job->chunk.push_back(id);
        job->chunk_bytes += size;
        if (job->chunk_bytes >= max_output_file_) emit(job);
        pump(job);
      });
    });
  }

  void emit(const std::shared_ptr<Job>& job) {
    disk_.submit(job->chunk_bytes, [] {});
    job->on_chunk(job->chunk);
    job->chunk.clear();
    job->chunk_bytes = 0;
  }

  sim::Simulator& simulator_;
  TwoEventDisk& disk_;
  const EventModel& model_;
  Bytes max_output_file_;
  std::vector<SimTime>& issued_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// One seeded scenario: two packs on one disk that may overlap, either of
/// which may be destroyed part-way, foreign reads and writes, and stats()
/// reads at random nanoseconds, and foreign requests that tie with a
/// copier read (add_ties()).
struct RunScenario {
  struct Pack {
    SimTime start = 0;
    std::vector<ObjectId> objects;
    Bytes max_output_file = 0;
    SimTime destroy_at = -1;  // never when negative
  };
  struct Request {
    SimTime at = 0;
    Bytes bytes = 0;
    bool write = false;
    // Issued from an event keyed 1 ns before `at`, so after the two-event
    // copier's CPU event for that instant (keyed one think time before).
    bool keyed_late = false;
  };
  std::array<Pack, 2> packs;
  std::vector<Request> requests;
  std::vector<SimTime> stats_at;
};

RunScenario make_run_scenario(std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  const auto at = [&next](SimTime bound) {
    return static_cast<SimTime>(next(static_cast<std::uint64_t>(bound)));
  };
  RunScenario s;
  for (std::size_t i = 0; i < s.packs.size(); ++i) {
    RunScenario::Pack& pack = s.packs[i];
    pack.start = i == 0 ? at(50 * kMillisecond) : at(600 * kMillisecond);
    pack.objects.resize(1 + next(120));
    for (ObjectId& id : pack.objects) {
      id = make_object_id(next(3) == 0 ? Tier::kEsd : Tier::kAod,
                          static_cast<std::int64_t>(next(5000)));
    }
    pack.max_output_file = static_cast<Bytes>(1 + next(2 * kMiB));
    if (next(i == 0 ? 4 : 2) == 0) {
      pack.destroy_at = pack.start + at(1 * kSecond);
    }
  }
  for (std::uint64_t k = 5 + next(30); k > 0; --k) {
    s.requests.push_back({at(1500 * kMillisecond),
                          static_cast<Bytes>(1 + next(4 * kMiB)),
                          next(2) == 0});
  }
  for (std::uint64_t k = 2 + next(8); k > 0; --k) {
    s.stats_at.push_back(at(1500 * kMillisecond));
  }
  return s;
}

/// What a scenario's run shows, in the order it happened.
struct RunLog {
  std::vector<std::string> lines;
  // Coverage, counted on the lazy side.
  int overlapping_starts = 0;     // a pack started while the other packed
  int destroyed_mid_pack = 0;
  int stats_mid_pack = 0;
  int requests_mid_pack = 0;
  // On the reference side: the copiers' read issue times, and the requests
  // issued at the nanosecond of the latest of them.
  std::vector<SimTime> reads;
  int ties = 0;

  void add(SimTime now, const std::string& what) {
    lines.push_back(std::to_string(now) + " " + what);
  }
  static std::string stats(const storage::DiskStats& s) {
    return "stats ops=" + std::to_string(s.operations) +
           " bytes=" + std::to_string(s.bytes_moved) +
           " busy=" + std::to_string(s.busy_time);
  }
  static std::string chunk(std::size_t pack,
                           const std::vector<ObjectId>& objects) {
    std::string line = "chunk " + std::to_string(pack) + ":";
    for (const ObjectId id : objects) line += " " + std::to_string(id.value);
    return line;
  }
};

constexpr std::int64_t kScenarioEvents = 5000;

/// Calls `issue` at `request.at`, from an event keyed then or, for a
/// keyed-late request, 1 ns before.
template <class Issue>
void schedule_request(sim::Simulator& simulator,
                      const RunScenario::Request& request, Issue issue) {
  if (!request.keyed_late) {
    simulator.schedule_at(request.at, std::move(issue));
    return;
  }
  simulator.schedule_at(request.at - 1, [&simulator, issue] {
    simulator.schedule(1, issue);
  });
}

RunLog run_lazy(const RunScenario& s) {
  sim::Simulator simulator;
  storage::Disk disk{simulator, storage::DiskConfig{}};
  storage::DiskPool pool{100 * kGiB, disk};
  Federation federation{"lazy-fd", EventModel::standard(kScenarioEvents),
                        pool};
  for (const Tier tier : {Tier::kAod, Tier::kEsd}) {
    const std::string name = std::string("/") + tier_name(tier);
    EXPECT_TRUE(pool.add_file(name, 1, 1, 0).is_ok());
    EXPECT_TRUE(
        federation.attach_range_file(name, tier, 0, kScenarioEvents).is_ok());
  }
  RunLog log;
  std::array<std::unique_ptr<ObjectCopier>, 2> copiers;
  std::array<bool, 2> packing{false, false};
  const auto any_packing = [&packing] { return packing[0] || packing[1]; };
  for (std::size_t i = 0; i < s.packs.size(); ++i) {
    const RunScenario::Pack& pack = s.packs[i];
    simulator.schedule_at(pack.start, [&, i] {
      log.overlapping_starts += packing[1 - i];
      CopierConfig config;
      config.max_output_file = pack.max_output_file;
      copiers[i] = std::make_unique<ObjectCopier>(simulator, federation,
                                                  config);
      packing[i] = true;
      copiers[i]->pack(
          pack.objects, "/pack/" + std::to_string(i),
          [&, i](const PackedOutput& chunk) {
            log.add(simulator.now(), RunLog::chunk(i, chunk.objects));
          },
          [&, i](Status status) {
            EXPECT_TRUE(status.is_ok()) << status.to_string();
            packing[i] = false;
            log.add(simulator.now(), "done " + std::to_string(i));
          });
    });
    if (pack.destroy_at >= 0) {
      simulator.schedule_at(pack.destroy_at, [&, i] {
        log.destroyed_mid_pack += packing[i];
        packing[i] = false;
        copiers[i].reset();
      });
    }
  }
  for (std::size_t k = 0; k < s.requests.size(); ++k) {
    const RunScenario::Request& request = s.requests[k];
    schedule_request(simulator, request, [&, k] {
      log.requests_mid_pack += any_packing();
      auto done = [&, k] {
        log.add(simulator.now(), "request " + std::to_string(k));
      };
      if (request.write) {
        disk.write(request.bytes, done);
      } else {
        disk.read(request.bytes, done);
      }
    });
  }
  for (const SimTime when : s.stats_at) {
    simulator.schedule_at(when, [&] {
      log.stats_mid_pack += any_packing();
      log.add(simulator.now(), RunLog::stats(disk.stats()));
    });
  }
  simulator.run();
  log.add(simulator.now(), RunLog::stats(disk.stats()));
  return log;
}

RunLog run_two_event(const RunScenario& s) {
  sim::Simulator simulator;
  TwoEventDisk disk{simulator, storage::DiskConfig{}};
  const EventModel model = EventModel::standard(kScenarioEvents);
  RunLog log;
  std::array<std::unique_ptr<TwoEventCopier>, 2> copiers;
  for (std::size_t i = 0; i < s.packs.size(); ++i) {
    const RunScenario::Pack& pack = s.packs[i];
    simulator.schedule_at(pack.start, [&, i] {
      copiers[i] = std::make_unique<TwoEventCopier>(
          simulator, disk, model, pack.max_output_file, log.reads);
      copiers[i]->pack(
          pack.objects,
          [&, i](const std::vector<ObjectId>& chunk) {
            log.add(simulator.now(), RunLog::chunk(i, chunk));
          },
          [&, i] { log.add(simulator.now(), "done " + std::to_string(i)); });
    });
    if (pack.destroy_at >= 0) {
      simulator.schedule_at(pack.destroy_at, [&, i] { copiers[i].reset(); });
    }
  }
  for (std::size_t k = 0; k < s.requests.size(); ++k) {
    const RunScenario::Request& request = s.requests[k];
    schedule_request(simulator, request, [&, k] {
      log.ties += request.keyed_late && !log.reads.empty() &&
                  log.reads.back() == simulator.now();
      disk.submit(request.bytes, [&, k] {
        log.add(simulator.now(), "request " + std::to_string(k));
      });
    });
  }
  for (const SimTime when : s.stats_at) {
    simulator.schedule_at(when, [&] {
      log.add(simulator.now(), RunLog::stats(disk.stats()));
    });
  }
  simulator.run();
  log.add(simulator.now(), RunLog::stats(disk.stats()));
  return log;
}

/// Adds up to three keyed-late requests to `s`, each at the issue time of
/// a copier read in the reference run with the earlier ones in place, and
/// later than all of them, so each stays a tie: a request at the same
/// nanosecond as a copier read, where the two-event copier's read went
/// first, as the lazy disk's tie rule has it.
void add_ties(RunScenario& s, std::uint64_t seed) {
  SimTime last = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    std::vector<SimTime> later;
    for (const SimTime read : run_two_event(s).reads) {
      if (read > last) later.push_back(read);
    }
    if (later.empty()) return;
    last = later[(seed * 40503 + k * 7919) % later.size()];
    const auto bytes = static_cast<Bytes>(1 + (seed + k) * 65537 % kMiB);
    s.requests.push_back({last, bytes, k == 1, /*keyed_late=*/true});
  }
}

// Differential check of lazy disk runs (DESIGN.md "Lazy disk runs"): on
// seeded scenarios the copier's chunk emissions and completions, every
// foreign request's completion and every DiskStats read equal those of the
// two-event reference, with two packs sharing the disk, foreign requests
// delaying them or tying with a copier read, stats() read mid-run and
// copiers destroyed mid-run.
TEST(ObjectCopier, LazyRunsMatchTwoEventReference) {
  int overlapping = 0, destroyed = 0, stats_read = 0, disturbed = 0;
  int ties = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RunScenario scenario = make_run_scenario(seed);
    add_ties(scenario, seed);
    const RunLog lazy = run_lazy(scenario);
    const RunLog reference = run_two_event(scenario);
    ASSERT_EQ(lazy.lines, reference.lines) << "seed " << seed;
    overlapping += lazy.overlapping_starts;
    destroyed += lazy.destroyed_mid_pack;
    stats_read += lazy.stats_mid_pack;
    disturbed += lazy.requests_mid_pack;
    ties += reference.ties;
  }
  // The scenarios do reach every interleaving the test names.
  EXPECT_GE(overlapping, 10);
  EXPECT_GE(destroyed, 10);
  EXPECT_GE(stats_read, 30);
  EXPECT_GE(disturbed, 200);
  EXPECT_GE(ties, 100);
}

}  // namespace
}  // namespace gdmp::objstore
