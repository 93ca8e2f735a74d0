// CAT — §4.2 replica catalog service at scale (DESIGN.md §5j).
//
// Part A drives the in-process ReplicaCatalog directly and reports
// wall-clock publish/lookup/search throughput of the LDAP-backed object
// model itself, with no network or service latency in the way.
//
// Part B stands the CatalogServer and CatalogClient on the paper's
// 45 Mbit/s / 125 ms CERN–ANL path and measures the protocol axis:
// per-file RPCs (the synchronous Globus-API style of the seed, here one
// rc.publish_batch frame of one file per call) against full
// rc.publish_batch / rc.lookup_batch frames, plus cold vs warm-cache vs
// stamp-revalidated lookups and cold vs cached searches.
//
// stdout carries only deterministic simulation numbers (the determinism
// harness diffs it, including under --hash-perturb); wall-clock rates go
// to stderr and the BENCH_replica_catalog.json report.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/filter.h"
#include "catalog/replica_catalog.h"
#include "gdmp/catalog_service.h"
#include "net/topology.h"
#include "security/credentials.h"

namespace {

using namespace gdmp;
using wall_clock = std::chrono::steady_clock;

double wall_since(wall_clock::time_point t0) {
  return std::chrono::duration<double>(wall_clock::now() - t0).count();
}

core::PublishedFile make_file(const std::string& lfn, int i) {
  core::PublishedFile file;
  file.lfn = lfn;
  file.local_path = "/pool/" + lfn;
  file.size = 1 * kMiB + i;
  file.content_seed = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(i);
  file.crc = static_cast<std::uint32_t>(i) * 2654435761u;
  file.extra["runidx"] = std::to_string(i % 10);
  return file;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::BenchReport report("replica_catalog", smoke);

  const int kFiles = smoke ? 1'000 : 100'000;   // bulk/batched arms
  const int kSeq = smoke ? 100 : 2'000;         // sequential (per-RPC) arms
  const int kSearchPasses = smoke ? 2 : 5;
  // Warm-cache probes complete synchronously, so one pass over the bulk set
  // is a sub-second wall window; repeat enough to keep the measurement wide
  // enough for the perf gate on a noisy box.
  const int kWarmPasses = smoke ? 3 : 20;      // zero-copy refs path
  const int kWarmCopyPasses = smoke ? 3 : 8;   // value-returning path

  std::printf("CAT: replica catalog service, client cache, batched RPC\n");
  std::printf("files=%d sequential=%d\n\n", kFiles, kSeq);

  // ---- Part A: local ReplicaCatalog (wall-clock) -------------------------
  std::printf("part A: local ReplicaCatalog (wall-clock rates on stderr)\n");
  {
    std::vector<std::string> lfns;
    lfns.reserve(static_cast<std::size_t>(kFiles));
    for (int i = 0; i < kFiles; ++i) {
      lfns.push_back("lfn://cms/flat/" + std::to_string(i));
    }
    catalog::ReplicaCatalog cat("bench");
    (void)cat.create_collection("cms");
    (void)cat.create_location("cms", "cern", "gsiftp://cern/pool");

    auto t0 = wall_clock::now();
    for (int i = 0; i < kFiles; ++i) {
      catalog::LogicalFileAttributes attrs;
      attrs.size = 1 * kMiB + i;
      attrs.extra["runidx"] = std::to_string(i % 10);
      if (!cat.register_logical_file("cms", lfns[i], attrs).is_ok() ||
          !cat.add_replica("cms", "cern", lfns[i]).is_ok()) {
        std::printf("part A publish failed at %d\n", i);
        return 1;
      }
    }
    const double publish_wall = wall_since(t0);

    t0 = wall_clock::now();
    std::size_t locations = 0;
    for (int i = 0; i < kFiles; ++i) {
      auto r = cat.lookup("cms", lfns[i]);
      if (!r.is_ok()) {
        std::printf("part A lookup failed at %d\n", i);
        return 1;
      }
      locations += r->size();
    }
    const double lookup_wall = wall_since(t0);

    t0 = wall_clock::now();
    std::size_t matches = 0;
    for (int pass = 0; pass < kSearchPasses; ++pass) {
      for (int k = 0; k < 10; ++k) {
        auto filter =
            catalog::Filter::parse("(runidx=" + std::to_string(k) + ")");
        if (!filter.is_ok()) return 1;
        auto found = cat.search("cms", *filter);
        if (!found.is_ok()) return 1;
        matches += found->size();
      }
    }
    const double search_wall = wall_since(t0);
    const int search_ops = 10 * kSearchPasses;

    std::printf("  generation=%llu lookup_locations=%zu search_matches=%zu\n",
                static_cast<unsigned long long>(cat.generation()), locations,
                matches);
    std::fprintf(stderr,
                 "  publish %.0f ops/s  lookup %.0f ops/s  search %.1f ops/s\n",
                 kFiles / publish_wall, kFiles / lookup_wall,
                 search_ops / search_wall);
    report.add({{"name", "local_publish"},
                {"files", kFiles},
                {"operations", kFiles},
                {"wall_seconds", publish_wall},
                {"catalog_ops_per_sec", kFiles / publish_wall}});
    report.add({{"name", "local_lookup"},
                {"files", kFiles},
                {"operations", kFiles},
                {"wall_seconds", lookup_wall},
                {"catalog_ops_per_sec", kFiles / lookup_wall}});
    report.add({{"name", "local_search"},
                {"files", kFiles},
                {"operations", search_ops},
                {"wall_seconds", search_wall},
                {"catalog_ops_per_sec", search_ops / search_wall}});
  }

  // ---- Part B: catalog service over the WAN ------------------------------
  std::printf("\npart B: WAN catalog service (45 Mbit/s, 125 ms RTT)\n");
  sim::Simulator simulator;
  net::Network network(simulator);
  auto path = net::make_wan_path(network, "rc", "site");
  net::TcpStack server_stack(simulator, *path.host_a);
  net::TcpStack client_stack(simulator, *path.host_b);
  security::CertificateAuthority ca("BenchCA");
  constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;

  core::CatalogServer server(server_stack, ca,
                             ca.issue("/CN=replica-catalog", kYear));
  if (!server.start().is_ok()) {
    std::printf("catalog server failed to start\n");
    return 1;
  }

  // The per-RPC arms run uncached (every call a round trip, as in the
  // paper); the cache arms get a TTL long enough to span parts of the run.
  constexpr SimDuration kTtl = 3600 * kSecond;
  core::CatalogClient cold_client(client_stack, path.host_a->id(), 2010, ca,
                                  ca.issue("/CN=site-cold", kYear),
                                  {/*cache_ttl=*/0, 65536, 256});
  core::CatalogClient warm_client(client_stack, path.host_a->id(), 2010, ca,
                                  ca.issue("/CN=site-warm", kYear),
                                  {kTtl, /*cache_capacity=*/1 << 18, 256});

  const std::string location = "site";
  const std::string url_prefix = "gsiftp://site/pool";
  bool failed = false;

  // publish, one round trip per file, each awaited (the synchronous
  // Globus-API calling style the wrapper replaces): a one-file
  // rc.publish_batch frame per call.
  std::vector<std::string> seq_lfns;
  for (int i = 0; i < kSeq; ++i) {
    seq_lfns.push_back("lfn://cms/seq/" + std::to_string(i));
  }
  SimTime t0_sim = simulator.now();
  SimTime end_sim = t0_sim;
  auto t0_wall = wall_clock::now();
  int next = 0;
  std::function<void()> publish_next = [&] {
    if (next == kSeq) {
      end_sim = simulator.now();
      return;
    }
    const int i = next++;
    cold_client.publish_batch(
        "cms", {make_file(seq_lfns[i], i)}, location, url_prefix,
        [&](Status s, std::vector<Status> statuses) {
          if (!s.is_ok() || statuses.size() != 1 || !statuses[0].is_ok()) {
            failed = true;
          }
          publish_next();
        });
  };
  publish_next();
  simulator.run();
  const double seq_publish_sim = to_seconds(end_sim - t0_sim);
  const double seq_publish_wall = wall_since(t0_wall);
  if (failed || next != kSeq) {
    std::printf("sequential publish failed\n");
    return 1;
  }
  std::printf("  publish sequential %6d files %10.3f sim-s\n", kSeq,
              seq_publish_sim);
  report.add({{"name", "wan_publish_sequential"},
              {"files", kSeq},
              {"operations", kSeq},
              {"sim_seconds", seq_publish_sim},
              {"wall_seconds", seq_publish_wall},
              {"catalog_ops_per_sec", kSeq / seq_publish_wall},
              {"files_per_sim_sec", kSeq / seq_publish_sim}});

  // publish, batched: the whole bulk set in rc.publish_batch frames.
  std::vector<core::PublishedFile> bulk;
  std::vector<std::string> bulk_lfns;
  bulk.reserve(static_cast<std::size_t>(kFiles));
  for (int i = 0; i < kFiles; ++i) {
    bulk_lfns.push_back("lfn://cms/bulk/" + std::to_string(i));
    bulk.push_back(make_file(bulk_lfns.back(), i));
  }
  t0_sim = simulator.now();
  t0_wall = wall_clock::now();
  int batch_ok = 0;
  cold_client.publish_batch(
      "cms", bulk, location, url_prefix,
      [&](Status s, std::vector<Status> statuses) {
        end_sim = simulator.now();
        if (!s.is_ok()) failed = true;
        for (const Status& st : statuses) {
          if (st.is_ok()) ++batch_ok;
        }
      });
  simulator.run();
  const double batch_publish_sim = to_seconds(end_sim - t0_sim);
  const double batch_publish_wall = wall_since(t0_wall);
  if (failed || batch_ok != kFiles) {
    std::printf("batched publish failed: %d/%d\n", batch_ok, kFiles);
    return 1;
  }
  const double publish_speedup = (kFiles / batch_publish_sim) /
                                 (kSeq / seq_publish_sim);
  std::printf("  publish batched    %6d files %10.3f sim-s  "
              "throughput vs sequential: %.0fx\n",
              kFiles, batch_publish_sim, publish_speedup);
  report.add({{"name", "wan_publish_batched"},
              {"files", kFiles},
              {"operations", kFiles},
              {"sim_seconds", batch_publish_sim},
              {"wall_seconds", batch_publish_wall},
              {"catalog_ops_per_sec", kFiles / batch_publish_wall},
              {"files_per_sim_sec", kFiles / batch_publish_sim},
              {"speedup_vs_sequential", publish_speedup}});

  // lookup, cold + sequential: one awaited round trip per file.
  t0_sim = simulator.now();
  t0_wall = wall_clock::now();
  next = 0;
  std::size_t seq_locations = 0;
  std::function<void()> lookup_next = [&] {
    if (next == kSeq) {
      end_sim = simulator.now();
      return;
    }
    const int i = next++;
    cold_client.lookup("cms", bulk_lfns[static_cast<std::size_t>(i)],
                       [&](Result<core::ReplicaInfo> r) {
                         if (r.is_ok()) seq_locations += r->locations.size();
                         else failed = true;
                         lookup_next();
                       });
  };
  lookup_next();
  simulator.run();
  const double seq_lookup_sim = to_seconds(end_sim - t0_sim);
  const double seq_lookup_wall = wall_since(t0_wall);
  if (failed) {
    std::printf("sequential lookup failed\n");
    return 1;
  }
  std::printf("  lookup  sequential %6d files %10.3f sim-s  locations=%zu\n",
              kSeq, seq_lookup_sim, seq_locations);
  report.add({{"name", "wan_lookup_cold_sequential"},
              {"files", kSeq},
              {"operations", kSeq},
              {"sim_seconds", seq_lookup_sim},
              {"wall_seconds", seq_lookup_wall},
              {"catalog_ops_per_sec", kSeq / seq_lookup_wall},
              {"files_per_sim_sec", kSeq / seq_lookup_sim}});

  // lookup, cold + batched: the bulk set in rc.lookup_batch frames,
  // priming the warm client's cache.
  t0_sim = simulator.now();
  t0_wall = wall_clock::now();
  std::size_t batch_locations = 0;
  warm_client.lookup_batch(
      "cms", bulk_lfns,
      [&](Status s, std::vector<Result<core::ReplicaInfo>> results) {
        end_sim = simulator.now();
        if (!s.is_ok()) failed = true;
        for (const auto& r : results) {
          if (r.is_ok()) batch_locations += r->locations.size();
          else failed = true;
        }
      });
  simulator.run();
  const double batch_lookup_sim = to_seconds(end_sim - t0_sim);
  const double batch_lookup_wall = wall_since(t0_wall);
  if (failed || batch_locations != static_cast<std::size_t>(kFiles)) {
    std::printf("batched lookup failed: %zu/%d\n", batch_locations, kFiles);
    return 1;
  }
  std::printf("  lookup  batched    %6d files %10.3f sim-s  locations=%zu\n",
              kFiles, batch_lookup_sim, batch_locations);
  report.add({{"name", "wan_lookup_cold_batched"},
              {"files", kFiles},
              {"operations", kFiles},
              {"sim_seconds", batch_lookup_sim},
              {"wall_seconds", batch_lookup_wall},
              {"catalog_ops_per_sec", kFiles / batch_lookup_wall},
              {"files_per_sim_sec", kFiles / batch_lookup_sim}});

  // lookup, warm cache: every entry fresh, zero round trips, completes
  // synchronously — the rate is pure client-side cache throughput. The
  // refs variant is the canonical warm path (borrowed pointers, what the
  // scheduler's prefetch uses): no ReplicaInfo copy per probe.
  t0_wall = wall_clock::now();
  std::size_t warm_locations = 0;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    warm_client.lookup_batch_refs(
        "cms", bulk_lfns,
        [&](Status s, std::vector<Result<const core::ReplicaInfo*>> results) {
          if (!s.is_ok()) failed = true;
          for (const auto& r : results) {
            if (r.is_ok()) warm_locations += (*r)->locations.size();
          }
        });
  }
  const double warm_wall = wall_since(t0_wall);
  const int warm_ops = kWarmPasses * kFiles;
  if (failed || warm_locations != static_cast<std::size_t>(warm_ops)) {
    std::printf("warm lookup failed: %zu/%d\n", warm_locations, warm_ops);
    return 1;
  }
  const double warm_ops_per_sec = warm_ops / warm_wall;
  const double warm_vs_sequential =
      warm_ops_per_sec / (kSeq / seq_lookup_wall);
  std::printf("  lookup  warm       %6d probes %9.3f sim-s  hits=%llu\n",
              warm_ops, 0.0,
              static_cast<unsigned long long>(
                  warm_client.lookup_cache_stats().hits));
  std::fprintf(stderr,
               "  warm lookup %.0f ops/s (%.0fx vs sequential %.0f ops/s)\n",
               warm_ops_per_sec, warm_vs_sequential, kSeq / seq_lookup_wall);
  report.add({{"name", "wan_lookup_warm"},
              {"files", kFiles},
              {"operations", warm_ops},
              {"sim_seconds", 0.0},
              {"wall_seconds", warm_wall},
              {"catalog_ops_per_sec", warm_ops_per_sec},
              {"speedup_vs_sequential", warm_vs_sequential}});

  // Same warm set through the value-returning lookup_batch: each hit deep-
  // copies its ReplicaInfo out of the cache, which is the convenience-path
  // tax the refs row avoids.
  t0_wall = wall_clock::now();
  std::size_t warm_copy_locations = 0;
  for (int pass = 0; pass < kWarmCopyPasses; ++pass) {
    warm_client.lookup_batch(
        "cms", bulk_lfns,
        [&](Status s, std::vector<Result<core::ReplicaInfo>> results) {
          if (!s.is_ok()) failed = true;
          for (const auto& r : results) {
            if (r.is_ok()) warm_copy_locations += r->locations.size();
          }
        });
  }
  const double warm_copy_wall = wall_since(t0_wall);
  const int warm_copy_ops = kWarmCopyPasses * kFiles;
  if (failed ||
      warm_copy_locations != static_cast<std::size_t>(warm_copy_ops)) {
    std::printf("warm copy lookup failed: %zu/%d\n", warm_copy_locations,
                warm_copy_ops);
    return 1;
  }
  const double warm_copy_ops_per_sec = warm_copy_ops / warm_copy_wall;
  std::printf("  lookup  warm-copy  %6d probes %9.3f sim-s  locations=%zu\n",
              warm_copy_ops, 0.0, warm_copy_locations);
  std::fprintf(stderr, "  warm-copy lookup %.0f ops/s\n",
               warm_copy_ops_per_sec);
  report.add({{"name", "wan_lookup_warm_copy"},
              {"files", kFiles},
              {"operations", warm_copy_ops},
              {"sim_seconds", 0.0},
              {"wall_seconds", warm_copy_wall},
              {"catalog_ops_per_sec", warm_copy_ops_per_sec},
              {"speedup_vs_sequential",
               warm_copy_ops_per_sec / (kSeq / seq_lookup_wall)}});

  // search, cold then cached (the cache keys on the filter text).
  t0_sim = simulator.now();
  t0_wall = wall_clock::now();
  next = 0;
  std::size_t search_matches = 0;
  std::function<void()> search_next = [&] {
    if (next == 10) {
      end_sim = simulator.now();
      return;
    }
    const int k = next++;
    warm_client.search("cms", "(runidx=" + std::to_string(k) + ")",
                       [&](Result<std::vector<core::ReplicaInfo>> r) {
                         if (r.is_ok()) search_matches += r->size();
                         else failed = true;
                         search_next();
                       });
  };
  search_next();
  simulator.run();
  const double search_cold_sim = to_seconds(end_sim - t0_sim);
  const double search_cold_wall = wall_since(t0_wall);
  if (failed) {
    std::printf("cold search failed\n");
    return 1;
  }
  std::printf("  search  cold       %6d filters %8.3f sim-s  matches=%zu\n",
              10, search_cold_sim, search_matches);
  report.add({{"name", "wan_search_cold"},
              {"operations", 10},
              {"matches", static_cast<long long>(search_matches)},
              {"sim_seconds", search_cold_sim},
              {"wall_seconds", search_cold_wall},
              {"catalog_ops_per_sec", 10 / search_cold_wall}});

  t0_wall = wall_clock::now();
  std::size_t cached_matches = 0;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (int k = 0; k < 10; ++k) {
      warm_client.search("cms", "(runidx=" + std::to_string(k) + ")",
                         [&](Result<std::vector<core::ReplicaInfo>> r) {
                           if (r.is_ok()) cached_matches += r->size();
                           else failed = true;
                         });
    }
  }
  const double search_cached_wall = wall_since(t0_wall);
  const int cached_ops = 10 * kWarmPasses;
  if (failed || cached_matches != kWarmPasses * search_matches) {
    std::printf("cached search failed\n");
    return 1;
  }
  std::printf("  search  cached     %6d probes %9.3f sim-s  matches=%zu\n",
              cached_ops, 0.0, cached_matches);
  report.add({{"name", "wan_search_cached"},
              {"operations", cached_ops},
              {"sim_seconds", 0.0},
              {"wall_seconds", search_cached_wall},
              {"catalog_ops_per_sec", cached_ops / search_cached_wall}});

  // lookup, revalidation: jump past the TTL, then re-fetch the whole set.
  // Nothing changed server-side, so every reply is a stamp-match
  // "unchanged" — no replica payloads, no per-result latency.
  simulator.run_until(simulator.now() + kTtl + 1 * kSecond);
  t0_sim = simulator.now();
  t0_wall = wall_clock::now();
  std::size_t reval_locations = 0;
  warm_client.lookup_batch(
      "cms", bulk_lfns,
      [&](Status s, std::vector<Result<core::ReplicaInfo>> results) {
        end_sim = simulator.now();
        if (!s.is_ok()) failed = true;
        for (const auto& r : results) {
          if (r.is_ok()) reval_locations += r->locations.size();
        }
      });
  simulator.run();
  const double reval_sim = to_seconds(end_sim - t0_sim);
  const double reval_wall = wall_since(t0_wall);
  const auto& cache_stats = warm_client.lookup_cache_stats();
  if (failed || reval_locations != static_cast<std::size_t>(kFiles) ||
      cache_stats.revalidate_unchanged !=
          static_cast<std::int64_t>(kFiles)) {
    std::printf("revalidation failed: locations=%zu unchanged=%llu\n",
                reval_locations,
                static_cast<unsigned long long>(
                    cache_stats.revalidate_unchanged));
    return 1;
  }
  std::printf("  lookup  revalidate %6d files %10.3f sim-s  unchanged=%llu\n",
              kFiles, reval_sim,
              static_cast<unsigned long long>(
                  cache_stats.revalidate_unchanged));
  report.add({{"name", "wan_lookup_revalidate"},
              {"files", kFiles},
              {"operations", kFiles},
              {"sim_seconds", reval_sim},
              {"wall_seconds", reval_wall},
              {"catalog_ops_per_sec", kFiles / reval_wall},
              {"files_per_sim_sec", kFiles / reval_sim}});

  std::printf(
      "\ncache: hits=%llu misses=%llu stale=%llu unchanged=%llu\n",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.stale_probes),
      static_cast<unsigned long long>(cache_stats.revalidate_unchanged));
  std::printf("server: entries=%zu generation=%llu operations=%lld\n",
              server.catalog().store().entry_count(),
              static_cast<unsigned long long>(server.catalog().generation()),
              static_cast<long long>(server.operations_served()));
  return failed ? 1 : 0;
}
