// Catalog service tests: ReplicaCatalog version stamps and delete
// preconditions, the client-side CatalogCache, and the batched
// CatalogServer/CatalogClient RPC surface (DESIGN.md §5j) — including
// destruction mid-flight.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_cache.h"
#include "catalog/filter.h"
#include "catalog/replica_catalog.h"
#include "counting_callback.h"
#include "gdmp/catalog_service.h"
#include "net/topology.h"
#include "security/credentials.h"

namespace gdmp {
namespace {

using core::PublishedFile;
using testing::CountingCallback;

constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;

// ------------------------------------------------------------ ReplicaCatalog

catalog::LogicalFileAttributes attrs_for(int i) {
  catalog::LogicalFileAttributes attrs;
  attrs.size = 1000 + i;
  attrs.crc = static_cast<std::uint32_t>(i);
  attrs.extra["runidx"] = std::to_string(i % 4);
  return attrs;
}

std::string lfn_for(int i) { return "lfn://cms/file." + std::to_string(i); }

/// Applies one fixed mutation script: 40 files over two locations, then a
/// few removals.
void apply_script(catalog::ReplicaCatalog& cat) {
  ASSERT_TRUE(cat.create_collection("cms").is_ok());
  ASSERT_TRUE(cat.create_location("cms", "cern", "gsiftp://cern/px").is_ok());
  ASSERT_TRUE(cat.create_location("cms", "fnal", "gsiftp://fnal/px").is_ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        cat.register_logical_file("cms", lfn_for(i), attrs_for(i)).is_ok());
    ASSERT_TRUE(cat.add_replica("cms", "cern", lfn_for(i)).is_ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(cat.add_replica("cms", "fnal", lfn_for(i)).is_ok());
    }
  }
  for (int i = 0; i < 40; i += 10) {
    ASSERT_TRUE(cat.remove_replica("cms", "cern", lfn_for(i)).is_ok());
  }
}

TEST(ReplicaCatalog, StampBumpsOnEveryMutationOfTheEntry) {
  catalog::ReplicaCatalog cat("gdmp");
  ASSERT_TRUE(cat.create_collection("cms").is_ok());
  ASSERT_TRUE(cat.create_location("cms", "cern", "gsiftp://cern/px").is_ok());
  ASSERT_TRUE(cat.create_location("cms", "fnal", "gsiftp://fnal/px").is_ok());
  ASSERT_TRUE(
      cat.register_logical_file("cms", "lfn://a", attrs_for(0)).is_ok());
  ASSERT_TRUE(
      cat.register_logical_file("cms", "lfn://b", attrs_for(1)).is_ok());

  const auto s0 = cat.entry_stamp("cms", "lfn://a").value();
  ASSERT_TRUE(cat.add_replica("cms", "cern", "lfn://a").is_ok());
  const auto s1 = cat.entry_stamp("cms", "lfn://a").value();
  EXPECT_GT(s1, s0);

  // Mutating an unrelated entry must not restamp this one.
  ASSERT_TRUE(cat.add_replica("cms", "fnal", "lfn://b").is_ok());
  EXPECT_EQ(cat.entry_stamp("cms", "lfn://a").value(), s1);

  ASSERT_TRUE(cat.remove_replica("cms", "cern", "lfn://a").is_ok());
  const auto s2 = cat.entry_stamp("cms", "lfn://a").value();
  EXPECT_GT(s2, s1);

  // lookup_versioned reports the same stamp the revalidation probe sees.
  const auto versioned = cat.lookup_versioned("cms", "lfn://b").value();
  EXPECT_EQ(versioned.stamp, cat.entry_stamp("cms", "lfn://b").value());
  EXPECT_EQ(versioned.locations.size(), 1u);

  EXPECT_EQ(cat.entry_stamp("cms", "lfn://nope").code(),
            ErrorCode::kNotFound);
}

TEST(ReplicaCatalog, DeletePreconditionsRefuseNonEmptyEntries) {
  catalog::ReplicaCatalog cat("gdmp");
  apply_script(cat);
  // "cern" still holds replicas and "cms" still holds files and locations.
  EXPECT_EQ(cat.delete_location("cms", "cern").code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(cat.delete_collection("cms").code(),
            ErrorCode::kFailedPrecondition);

  const auto at_cern = cat.list_location("cms", "cern").value();
  for (const auto& lfn : at_cern) {
    ASSERT_TRUE(cat.remove_replica("cms", "cern", lfn).is_ok());
  }
  EXPECT_TRUE(cat.delete_location("cms", "cern").is_ok());
  const auto at_fnal = cat.list_location("cms", "fnal").value();
  for (const auto& lfn : at_fnal) {
    ASSERT_TRUE(cat.remove_replica("cms", "fnal", lfn).is_ok());
  }
  EXPECT_TRUE(cat.delete_location("cms", "fnal").is_ok());
  const auto remaining = cat.list_collection("cms").value();
  for (const auto& lfn : remaining) {
    ASSERT_TRUE(cat.unregister_logical_file("cms", lfn).is_ok());
  }
  EXPECT_TRUE(cat.delete_collection("cms").is_ok());
  EXPECT_FALSE(cat.collection_exists("cms"));
}

// -------------------------------------------------------------- CatalogCache

using StringCache = catalog::CatalogCache<std::string>;

TEST(CatalogCache, ProbeLifecycleMissFreshStale) {
  StringCache cache({.ttl = 10 * kSecond, .capacity = 8});
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  EXPECT_EQ(cache.probe("cms", "a", 0, &value, &stamp),
            catalog::CacheProbe::kMiss);
  cache.insert("cms", "a", "v1", 7, 0);
  EXPECT_EQ(cache.probe("cms", "a", 10 * kSecond, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(*value, "v1");
  EXPECT_EQ(stamp, 7u);
  EXPECT_EQ(cache.probe("cms", "a", 11 * kSecond, &value, &stamp),
            catalog::CacheProbe::kStale);
  EXPECT_EQ(*value, "v1");  // stale still hands out the cached copy
  EXPECT_TRUE(cache.refresh("cms", "a", 11 * kSecond));
  EXPECT_EQ(cache.probe("cms", "a", 12 * kSecond, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().stale_probes, 1);
  EXPECT_EQ(cache.stats().revalidate_unchanged, 1);
}

TEST(CatalogCache, ZeroTtlDisablesEverything) {
  StringCache cache({.ttl = 0, .capacity = 8});
  EXPECT_FALSE(cache.enabled());
  cache.insert("cms", "a", "v1", 1, 0);
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  EXPECT_EQ(cache.probe("cms", "a", 0, &value, &stamp),
            catalog::CacheProbe::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CatalogCache, FifoEvictionAtCapacity) {
  StringCache cache({.ttl = 10 * kSecond, .capacity = 3});
  cache.insert("cms", "a", "va", 1, 0);
  cache.insert("cms", "b", "vb", 2, 0);
  cache.insert("cms", "c", "vc", 3, 0);
  // Re-inserting "a" renews its slot, so "b" is now the oldest.
  cache.insert("cms", "a", "va2", 4, 0);
  cache.insert("cms", "d", "vd", 5, 0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1);
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  EXPECT_EQ(cache.probe("cms", "b", 0, &value, &stamp),
            catalog::CacheProbe::kMiss);
  EXPECT_EQ(cache.probe("cms", "a", 0, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(*value, "va2");
  EXPECT_EQ(stamp, 4u);
}

TEST(CatalogCache, InvalidateSingleAndWholeCollection) {
  StringCache cache({.ttl = 10 * kSecond, .capacity = 8});
  cache.insert("cms", "a", "va", 1, 0);
  cache.insert("cms", "b", "vb", 2, 0);
  cache.insert("atlas", "a", "wa", 3, 0);
  cache.invalidate("cms", "a");
  EXPECT_EQ(cache.size(), 2u);
  cache.invalidate("cms", "a");  // second drop of the same key is a no-op
  EXPECT_EQ(cache.stats().invalidations, 1);
  cache.invalidate_collection("cms");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2);
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  EXPECT_EQ(cache.probe("atlas", "a", 0, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(*value, "wa");
  cache.invalidate_collection("cms");  // empty collection is a no-op
  EXPECT_EQ(cache.stats().invalidations, 2);
}

TEST(CatalogCache, PeekLeavesStatsAloneAndNoteHitsBulks) {
  StringCache cache({.ttl = 10 * kSecond, .capacity = 8});
  cache.insert("cms", "a", "va", 1, 0);
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  EXPECT_EQ(cache.peek("cms", "a", 0, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(cache.peek("cms", "b", 0, &value, &stamp),
            catalog::CacheProbe::kMiss);
  EXPECT_EQ(cache.peek("cms", "a", 11 * kSecond, &value, &stamp),
            catalog::CacheProbe::kStale);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().stale_probes, 0);
  cache.note_hits(42);
  EXPECT_EQ(cache.stats().hits, 42);
}

TEST(CatalogCache, CompositeKeysNeverCollideAcrossCollections) {
  // "ab" + "c" and "a" + "bc" must stay distinct entries.
  StringCache cache({.ttl = 10 * kSecond, .capacity = 8});
  cache.insert("ab", "c", "first", 1, 0);
  cache.insert("a", "bc", "second", 2, 0);
  EXPECT_EQ(cache.size(), 2u);
  const std::string* value = nullptr;
  std::uint64_t stamp = 0;
  ASSERT_EQ(cache.probe("ab", "c", 0, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(*value, "first");
  ASSERT_EQ(cache.probe("a", "bc", 0, &value, &stamp),
            catalog::CacheProbe::kFresh);
  EXPECT_EQ(*value, "second");
}

// ------------------------------------------- CatalogServer / CatalogClient

struct CatalogRig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> client_stack, server_stack;
  security::CertificateAuthority ca{"TestCA"};
  std::unique_ptr<core::CatalogServer> server;
  std::unique_ptr<core::CatalogClient> client;

  explicit CatalogRig(core::CatalogClientConfig client_config = {
                          .cache_ttl = 300 * kSecond,
                          .cache_capacity = 1024,
                          .max_batch = 4}) {
    path = net::make_wan_path(network, "site", "rc");
    client_stack = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    server_stack = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    server = std::make_unique<core::CatalogServer>(
        *server_stack, ca, ca.issue("/CN=rc", kYear));
    EXPECT_TRUE(server->start().is_ok());
    client = std::make_unique<core::CatalogClient>(
        *client_stack, path.host_b->id(), 2010, ca,
        ca.issue("/CN=site", kYear), client_config);
  }

  PublishedFile file(int i) const {
    PublishedFile f;
    f.lfn = lfn_for(i);
    f.local_path = "/data/f" + std::to_string(i);
    f.size = 1 << 20;
    f.crc = static_cast<std::uint32_t>(i);
    return f;
  }

  std::vector<LogicalFileName> lfns(int n) const {
    std::vector<LogicalFileName> out;
    for (int i = 0; i < n; ++i) out.push_back(lfn_for(i));
    return out;
  }

  void publish_all(int n) {
    std::vector<PublishedFile> files;
    for (int i = 0; i < n; ++i) files.push_back(file(i));
    bool ok = false;
    client->publish_batch("cms", files, "cern", "gsiftp://cern/px",
                          [&](Status s, std::vector<Status> statuses) {
                            ok = s.is_ok();
                            for (const Status& st : statuses) {
                              ok = ok && st.is_ok();
                            }
                          });
    simulator.run();
    ASSERT_TRUE(ok);
  }
};

TEST(CatalogService, PublishBatchAlignsStatusesAndChunks) {
  CatalogRig rig;  // max_batch = 4 → 10 files span three frames
  std::vector<PublishedFile> files;
  for (int i = 0; i < 10; ++i) files.push_back(rig.file(i));
  files.push_back(rig.file(3));  // duplicate registers as kAlreadyExists

  Status overall = make_error(ErrorCode::kInternal, "never ran");
  std::vector<Status> statuses;
  rig.client->publish_batch("cms", files, "cern", "gsiftp://cern/px",
                            [&](Status s, std::vector<Status> per_file) {
                              overall = s;
                              statuses = std::move(per_file);
                            });
  rig.simulator.run();
  ASSERT_TRUE(overall.is_ok());
  ASSERT_EQ(statuses.size(), files.size());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(statuses[i].is_ok()) << i;
  EXPECT_EQ(statuses[10].code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(rig.server->catalog().list_collection("cms").value().size(), 10u);
}

TEST(CatalogService, WarmLookupBatchServesFromCacheWithoutRpc) {
  CatalogRig rig;
  rig.publish_all(10);
  const auto lfns = rig.lfns(10);

  // Cold pass fills the cache (publish invalidated the published entries).
  bool ok = false;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>> r) {
        ok = s.is_ok() && r.size() == lfns.size();
        for (const auto& item : r) ok = ok && item.is_ok();
      });
  rig.simulator.run();
  ASSERT_TRUE(ok);

  // Warm pass: synchronous completion, no new server operations.
  const auto ops_before = rig.server->operations_served();
  const auto hits_before = rig.client->lookup_cache_stats().hits;
  bool completed = false;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>> r) {
        completed = s.is_ok();
        for (const auto& item : r) {
          completed = completed && item.is_ok() &&
                      item->locations.size() == 1 &&
                      item->locations.front().starts_with("gsiftp://cern/px");
        }
      });
  EXPECT_TRUE(completed);  // before any simulator.run(): zero round trips
  EXPECT_EQ(rig.server->operations_served(), ops_before);
  EXPECT_EQ(rig.client->lookup_cache_stats().hits,
            hits_before + static_cast<std::int64_t>(lfns.size()));
}

TEST(CatalogService, LookupBatchRefsFastPathBorrowsFromCache) {
  CatalogRig rig;
  rig.publish_all(6);
  const auto lfns = rig.lfns(6);

  // Cold refs call falls back to the copying path (cache not warm yet) and
  // must still deliver one ok result per file.
  int delivered = 0;
  rig.client->lookup_batch_refs(
      "cms", lfns,
      [&](Status s, std::vector<Result<const core::ReplicaInfo*>> refs) {
        ASSERT_TRUE(s.is_ok());
        for (const auto& r : refs) {
          ASSERT_TRUE(r.is_ok());
          delivered += static_cast<int>((*r)->locations.size());
        }
      });
  rig.simulator.run();
  EXPECT_EQ(delivered, 6);

  // Warm refs call completes synchronously, bumps hits in bulk, no RPC.
  const auto ops_before = rig.server->operations_served();
  const auto hits_before = rig.client->lookup_cache_stats().hits;
  bool completed = false;
  rig.client->lookup_batch_refs(
      "cms", lfns,
      [&](Status s, std::vector<Result<const core::ReplicaInfo*>> refs) {
        completed = s.is_ok() && refs.size() == lfns.size();
        for (std::size_t i = 0; i < refs.size(); ++i) {
          completed = completed && refs[i].is_ok() &&
                      (*refs[i])->lfn == lfns[i];
        }
      });
  EXPECT_TRUE(completed);
  EXPECT_EQ(rig.server->operations_served(), ops_before);
  EXPECT_EQ(rig.client->lookup_cache_stats().hits,
            hits_before + static_cast<std::int64_t>(lfns.size()));
}

TEST(CatalogService, LookupBatchReportsMissingFilesPerItem) {
  CatalogRig rig;
  rig.publish_all(2);
  std::vector<LogicalFileName> lfns = {lfn_for(0), "lfn://cms/ghost",
                                       lfn_for(1)};
  Status overall = make_error(ErrorCode::kInternal, "never ran");
  std::vector<Result<core::ReplicaInfo>> results;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>> r) {
        overall = s;
        results = std::move(r);
      });
  rig.simulator.run();
  ASSERT_TRUE(overall.is_ok());  // transport ok; item 1 carries its error
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].is_ok());
  EXPECT_EQ(results[1].code(), ErrorCode::kNotFound);
  EXPECT_TRUE(results[2].is_ok());
}

TEST(CatalogService, LocalMutationInvalidatesCachedLookup) {
  CatalogRig rig;
  rig.publish_all(1);
  const auto lfns = rig.lfns(1);

  bool ok = false;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>> r) {
        ok = s.is_ok() && r.size() == 1 && r[0].is_ok() &&
             r[0]->locations.size() == 1;
      });
  rig.simulator.run();
  ASSERT_TRUE(ok);

  // Write-through: our own add_replica drops the cached entry, so the next
  // lookup refetches and sees both locations immediately (no TTL wait).
  Status added = make_error(ErrorCode::kInternal, "never ran");
  rig.client->add_replica("cms", lfns[0], "fnal", "gsiftp://fnal/px",
                          [&](Status s) { added = s; });
  rig.simulator.run();
  ASSERT_TRUE(added.is_ok());
  EXPECT_GE(rig.client->lookup_cache_stats().invalidations, 1);

  std::size_t locations = 0;
  rig.client->lookup("cms", lfns[0], [&](Result<core::ReplicaInfo> r) {
    if (r.is_ok()) locations = r->locations.size();
  });
  rig.simulator.run();
  EXPECT_EQ(locations, 2u);
}

TEST(CatalogService, StaleEntryRevalidatesByStamp) {
  CatalogRig rig({.cache_ttl = 60 * kSecond, .cache_capacity = 64,
                  .max_batch = 4});
  rig.publish_all(3);
  const auto lfns = rig.lfns(3);

  bool ok = false;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>>) {
        ok = s.is_ok();
      });
  rig.simulator.run();
  ASSERT_TRUE(ok);

  // Idle past the TTL: the next lookup revalidates all three by stamp and
  // the server confirms "unchanged" without shipping the replica lists.
  rig.simulator.run_until(rig.simulator.now() + 120 * kSecond);
  std::size_t served = 0;
  rig.client->lookup_batch(
      "cms", lfns, [&](Status s, std::vector<Result<core::ReplicaInfo>> r) {
        if (!s.is_ok()) return;
        for (const auto& item : r) {
          if (item.is_ok() && item->locations.size() == 1) ++served;
        }
      });
  rig.simulator.run();
  EXPECT_EQ(served, 3u);
  EXPECT_EQ(rig.client->lookup_cache_stats().revalidate_unchanged, 3);
  EXPECT_EQ(rig.client->lookup_cache_stats().revalidate_changed, 0);

  // A remote writer moves one entry's stamp; the next revalidation of that
  // entry comes back changed, with the new replica list.
  ASSERT_TRUE(rig.server->catalog()
                  .create_location("cms", "fnal", "gsiftp://fnal/px")
                  .is_ok());
  ASSERT_TRUE(
      rig.server->catalog().add_replica("cms", "fnal", lfns[0]).is_ok());
  rig.simulator.run_until(rig.simulator.now() + 120 * kSecond);
  std::size_t first_locations = 0;
  rig.client->lookup("cms", lfns[0], [&](Result<core::ReplicaInfo> r) {
    if (r.is_ok()) first_locations = r->locations.size();
  });
  rig.simulator.run();
  EXPECT_EQ(first_locations, 2u);
  EXPECT_EQ(rig.client->lookup_cache_stats().revalidate_changed, 1);
}

TEST(CatalogService, SearchCachesByFilterTextUntilMutation) {
  CatalogRig rig;
  rig.publish_all(4);

  std::size_t matches = 0;
  rig.client->search("cms", "(objectclass=logicalfile)",
                     [&](Result<std::vector<core::ReplicaInfo>> r) {
                       if (r.is_ok()) matches = r->size();
                     });
  rig.simulator.run();
  EXPECT_EQ(matches, 4u);

  // Cached: same filter text completes synchronously.
  const auto ops_before = rig.server->operations_served();
  bool completed = false;
  rig.client->search("cms", "(objectclass=logicalfile)",
                     [&](Result<std::vector<core::ReplicaInfo>> r) {
                       completed = r.is_ok() && r->size() == 4;
                     });
  EXPECT_TRUE(completed);
  EXPECT_EQ(rig.server->operations_served(), ops_before);
}

TEST(CatalogService, SearchSortsByLogicalName) {
  // The catalog escapes '/' to "%2F" in DNs, which sorts before '-' and
  // '.', so DN order would put a/b first; rc.search answers in name order.
  CatalogRig rig;
  std::vector<PublishedFile> files;
  for (const char* lfn : {"lfn://cms/a/b", "lfn://cms/a.b", "lfn://cms/a-b"}) {
    PublishedFile file = rig.file(0);
    file.lfn = lfn;
    files.push_back(file);
  }
  bool published = false;
  rig.client->publish_batch("cms", files, "cern", "gsiftp://cern/px",
                            [&](Status s, std::vector<Status> statuses) {
                              published = s.is_ok();
                              for (const Status& st : statuses) {
                                published = published && st.is_ok();
                              }
                            });
  rig.simulator.run();
  ASSERT_TRUE(published);

  std::vector<LogicalFileName> names;
  rig.client->search("cms", "(objectclass=logicalfile)",
                     [&](Result<std::vector<core::ReplicaInfo>> r) {
                       ASSERT_TRUE(r.is_ok());
                       for (const core::ReplicaInfo& info : *r) {
                         names.push_back(info.lfn);
                       }
                     });
  rig.simulator.run();
  EXPECT_EQ(names, (std::vector<LogicalFileName>{
                       "lfn://cms/a-b", "lfn://cms/a.b", "lfn://cms/a/b"}));
}

TEST(CatalogService, ClientDestroyedMidLookupBatchFiresOnce) {
  CatalogRig rig;
  rig.publish_all(8);
  CountingCallback done;
  rig.client->lookup_batch(
      "cms", rig.lfns(8),
      done.wrap<Status, std::vector<Result<core::ReplicaInfo>>>());
  // A few RTT-less microseconds in: the request is on the wire, no reply.
  rig.simulator.run_until(rig.simulator.now() + 1 * kMillisecond);
  EXPECT_EQ(done.count(), 0);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run();  // draining the wire must not re-fire the callback
  EXPECT_TRUE(done.exactly_once());
}

TEST(CatalogService, ClientDestroyedMidPublishBatchFiresOnce) {
  CatalogRig rig;
  std::vector<PublishedFile> files;
  for (int i = 0; i < 8; ++i) files.push_back(rig.file(i));
  CountingCallback done;
  rig.client->publish_batch("cms", files, "cern", "gsiftp://cern/px",
                            done.wrap<Status, std::vector<Status>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kMillisecond);
  EXPECT_EQ(done.count(), 0);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run();
  EXPECT_TRUE(done.exactly_once());
}

TEST(CatalogService, ClientDestroyedMidRefsLookupFiresOnce) {
  CatalogRig rig;
  rig.publish_all(4);
  CountingCallback done;
  rig.client->lookup_batch_refs(
      "cms", rig.lfns(4),
      done.wrap<Status, std::vector<Result<const core::ReplicaInfo*>>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kMillisecond);
  EXPECT_EQ(done.count(), 0);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run();
  EXPECT_TRUE(done.exactly_once());
}

}  // namespace
}  // namespace gdmp
