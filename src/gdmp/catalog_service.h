// GDMP Replica Catalog Service (§4.2), scaled out (DESIGN.md §5j).
//
// Server side: the central catalog host, now running a ShardedCatalog —
// N Globus Replica Catalog shards partitioned by seeded hash of
// (collection, lfn) — instead of the paper's single LDAP server. Every
// operation pays an LDAP service latency plus a per-result cost.
//
// Client side: the high-level object-oriented wrapper the paper describes
// ("hides some Globus API details ... requires fewer method calls"),
// extended with
//   * a CatalogCache of lookup and search results (TTL + version-stamp
//     revalidation; local mutations invalidate synchronously), and
//   * batched wire ops — publish_batch / lookup_batch — that coalesce a
//     bulk publish or prefetch into one framed request per batch instead
//     of one round trip per file.
#pragma once

#include <functional>
#include <memory>

#include "catalog/catalog_cache.h"
#include "catalog/sharded_catalog.h"
#include "gdmp/types.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace gdmp::core {

struct CatalogServerConfig {
  net::Port port = 2010;
  /// Catalog shards behind the service endpoint.
  int shards = 8;
};

class CatalogServer {
 public:
  CatalogServer(net::TcpStack& stack,
                const security::CertificateAuthority& ca,
                security::Certificate credential,
                CatalogServerConfig config = {});

  Status start();
  void stop();

  catalog::ShardedCatalog& catalog() noexcept { return catalog_; }
  std::int64_t operations_served() const noexcept { return operations_; }

 private:
  using Respond = rpc::RpcServer::Respond;

  /// Schedules `fn` after the op latency + per-result cost. The callback
  /// is an InlineFunction end to end — no std::function re-erasure between
  /// here and the event kernel.
  void with_latency(std::size_t results, sim::Simulator::Callback fn);

  /// Registers one logical file + first replica, auto-creating the
  /// collection and location (shared by publish and publish_batch).
  Status publish_one(const std::string& collection, const PublishedFile& file,
                     const std::string& location_name,
                     const std::string& url_prefix);

  void handle_publish(std::span<const std::uint8_t> params, Respond respond);
  void handle_publish_batch(std::span<const std::uint8_t> params,
                            Respond respond);
  void handle_add_replica(std::span<const std::uint8_t> params,
                          Respond respond);
  void handle_remove_replica(std::span<const std::uint8_t> params,
                             Respond respond);
  void handle_lookup_batch(std::span<const std::uint8_t> params,
                           Respond respond);
  void handle_search(std::span<const std::uint8_t> params, Respond respond);

  net::TcpStack& stack_;
  rpc::RpcServer rpc_;
  CatalogServerConfig config_;
  catalog::ShardedCatalog catalog_;
  std::int64_t operations_ = 0;
};

/// A replica of a logical file, as returned by lookup/search.
struct ReplicaInfo {
  LogicalFileName lfn;
  catalog::LogicalFileAttributes attributes;
  std::vector<PhysicalFileName> locations;
};

struct CatalogClientConfig {
  /// Lookup/search results younger than this are served from the local
  /// cache without an RPC; older entries are revalidated by version stamp.
  /// Zero disables caching (every call is a round trip, as in the paper).
  SimDuration cache_ttl = 0;
  std::size_t cache_capacity = 65536;
  /// Max files per batched request frame; larger batches are split.
  std::size_t max_batch = 256;
};

class CatalogClient {
 public:
  using LookupCache = catalog::CatalogCache<ReplicaInfo>;
  using SearchCache = catalog::CatalogCache<std::vector<ReplicaInfo>>;

  CatalogClient(net::TcpStack& stack, net::NodeId catalog_host,
                net::Port catalog_port,
                const security::CertificateAuthority& ca,
                security::Certificate credential,
                CatalogClientConfig config = {});
  ~CatalogClient();

  /// One call: ensures collection + location exist, registers the logical
  /// file (globally unique name enforced server-side) and its first
  /// replica. The raw Globus API needs four calls for this.
  void publish(const std::string& collection, const PublishedFile& file,
               const std::string& location_name,
               const std::string& url_prefix,
               std::function<void(Status)> done);

  /// Bulk publish: one framed rc.publish_batch request per `max_batch`
  /// files instead of one round trip each. `done` receives the transport
  /// status plus one status per input file (aligned with `files`).
  void publish_batch(const std::string& collection,
                     const std::vector<PublishedFile>& files,
                     const std::string& location_name,
                     const std::string& url_prefix,
                     std::function<void(Status, std::vector<Status>)> done);

  /// Registers an additional replica of an existing logical file.
  void add_replica(const std::string& collection, const LogicalFileName& lfn,
                   const std::string& location_name,
                   const std::string& url_prefix,
                   std::function<void(Status)> done);

  void remove_replica(const std::string& collection,
                      const LogicalFileName& lfn,
                      const std::string& location_name,
                      std::function<void(Status)> done);

  /// All physical locations + attributes of one logical file. May complete
  /// synchronously on a fresh cache hit (zero round trips).
  void lookup(const std::string& collection, const LogicalFileName& lfn,
              std::function<void(Result<ReplicaInfo>)> done);

  /// Bulk lookup: fresh cache entries are served locally, the rest travel
  /// in one rc.lookup_batch request carrying their cached stamps, so the
  /// server answers "unchanged" cheaply for revalidations. Results align
  /// with `lfns`. Completes synchronously when everything is cached fresh.
  void lookup_batch(
      const std::string& collection, const std::vector<LogicalFileName>& lfns,
      std::function<void(Status, std::vector<Result<ReplicaInfo>>)> done);

  /// The cached lookup of `lfn` while it is fresh (within the TTL), else
  /// nullptr; `*stamp_out` receives its version stamp and `*fresh_until`
  /// the last instant it stays fresh. A read-only peek: no RPC, no copy and
  /// no cache accounting. The pointee stays valid until this client's next
  /// catalog call.
  const ReplicaInfo* peek_fresh(const std::string& collection,
                                const LogicalFileName& lfn,
                                std::uint64_t* stamp_out,
                                SimTime* fresh_until = nullptr);

  /// Installs the lookup cache's one entry observer: told (collection, lfn)
  /// whenever a cached lookup is inserted, replaced or dropped.
  void set_lookup_observer(LookupCache::EntryObserver observer) {
    lookup_cache_.set_entry_observer(std::move(observer));
  }

  /// Zero-copy bulk lookup for read-only consumers (the scheduler's batch
  /// prefetch, bulk scans). When every file is cached fresh, `done` runs
  /// synchronously with borrowed pointers into the cache — no ReplicaInfo
  /// copies and no RPC. Otherwise it delegates to lookup_batch and the
  /// pointers borrow from the fetched values instead. Either way the
  /// pointees are valid only until `done` returns.
  void lookup_batch_refs(
      const std::string& collection, const std::vector<LogicalFileName>& lfns,
      std::function<void(Status, std::vector<Result<const ReplicaInfo*>>)>
          done);

  /// Logical files matching an LDAP filter over their attributes
  /// ("users can specify filters to obtain the exact information that they
  /// require"). Results are cached per filter text (TTL only).
  void search(const std::string& collection, const std::string& filter,
              std::function<void(Result<std::vector<ReplicaInfo>>)> done);

  /// Exposes cache counters (hits/misses/stale_revalidate/...) to the
  /// site registry under <scope>.lookup and <scope>.search.
  void set_metrics(const obs::MetricsScope& scope);

  const CatalogClientConfig& config() const noexcept { return config_; }
  const LookupCache::Stats& lookup_cache_stats() const noexcept {
    return lookup_cache_.stats();
  }
  const SearchCache::Stats& search_cache_stats() const noexcept {
    return search_cache_.stats();
  }

 private:
  /// Sends one rc.publish_batch chunk starting at `offset`.
  void publish_chunk(std::shared_ptr<std::vector<PublishedFile>> files,
                     std::shared_ptr<std::vector<Status>> statuses,
                     std::string collection, std::string location_name,
                     std::string url_prefix, std::size_t offset,
                     std::function<void(Status, std::vector<Status>)> done);

  /// Local write-through: a mutation of `lfn` drops the cached lookup and
  /// every cached search of its collection.
  void invalidate_local(const std::string& collection,
                        const LogicalFileName& lfn);

  CatalogClientConfig config_;
  sim::Simulator& sim_;
  // Caches are declared before rpc_ so callbacks aborted by ~RpcClient can
  // still touch them safely during destruction.
  LookupCache lookup_cache_;
  SearchCache search_cache_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  rpc::RpcClient rpc_;
};

}  // namespace gdmp::core
