// Tests for the object store: model, catalogs, federation, persistency,
// object copier.
#include <gtest/gtest.h>

#include <memory>

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

}  // namespace
}  // namespace gdmp::objstore
