// GDMP server: one per Grid site (§4.1, Figure 3/4).
//
// Combines the Request Manager (GSI-authenticated RPC), the Replica
// Catalog Service client (central catalog), the Data Mover (GridFTP) and
// the Storage Manager (disk pool + MSS plug-in) behind the
// producer–consumer replication model:
//
//   producer: publish() -> central catalog + notify subscribers
//   consumer: notification -> site scheduler -> replicate() -> lookup ->
//             choose source -> pre-process -> stage@source -> Data Mover
//             pull (+CRC) -> post-process -> register replica
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/uri.h"
#include "gdmp/catalog_service.h"
#include "gdmp/data_mover.h"
#include "gdmp/file_type.h"
#include "gdmp/storage_manager.h"
#include "gdmp/types.h"
#include "obs/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/rpc_server.h"
#include "security/acl.h"

namespace gdmp::core {

struct SubscriberInfo {
  std::string site;
  net::NodeId node = net::kInvalidNode;
  net::Port port = 0;

  friend bool operator<(const SubscriberInfo& a,
                        const SubscriberInfo& b) noexcept {
    return a.site < b.site;
  }
};

struct GdmpServerStats {
  std::int64_t files_published = 0;
  std::int64_t notifications_sent = 0;
  std::int64_t notifications_received = 0;
  std::int64_t files_replicated = 0;
  std::int64_t replication_failures = 0;
  std::int64_t stage_requests_served = 0;
  /// Notified files handed to the site's scheduler.
  std::int64_t notifications_queued = 0;
};

class GdmpServer {
 public:
  /// Resolves a hostname from a replica URL to a simulated node
  /// (the testbed provides this from its Network).
  using HostResolver = std::function<Result<net::NodeId>(const std::string&)>;

  using PublishDone = std::function<void(Status)>;
  using ReplicateDone =
      std::function<void(Result<gridftp::TransferResult>)>;

  /// Per-request source choice: an index into the remote candidates, in
  /// catalog order (out of range falls back to 0). Cost-function selection
  /// is the paper's future work [VTF01]; the scheduler's dispatches supply
  /// it. A chooser may *refuse* the request (e.g. every candidate's site is
  /// at its concurrency cap) by returning an error; the request then fails
  /// with that status without counting as a replication failure, and the
  /// caller decides what to do.
  using SourceChooser =
      std::function<Result<std::size_t>(const std::vector<Uri>&)>;

  /// Per-request overrides for replicate().
  struct ReplicateOptions {
    /// Unset takes the first remote catalog location (GDMP 2.0, §4.2).
    SourceChooser choose_source;
    /// Invoked once a source replica has been chosen and resolved, before
    /// any staging or transfer work starts.
    std::function<void(const std::string& source_host)> on_source;
    /// Parent for the "gdmp.replicate" span; invalid = ambient current.
    obs::SpanId parent_span{};
  };

  GdmpServer(SiteServices& site, GdmpConfig config, HostResolver resolver);
  ~GdmpServer();

  GdmpServer(const GdmpServer&) = delete;
  GdmpServer& operator=(const GdmpServer&) = delete;

  Status start();
  void stop();

  // ---- Producer API ------------------------------------------------------
  /// Publishes locally produced files: registers each in the central
  /// replica catalog (global namespace), records it in the export catalog,
  /// optionally archives it, then notifies every subscriber.
  void publish(std::vector<PublishedFile> files, PublishDone done);

  // ---- Consumer API ------------------------------------------------------
  /// Subscribes this site to a remote producer's new-file notifications.
  void subscribe_to(net::NodeId producer, net::Port producer_port,
                    std::function<void(Status)> done);

  /// Replicates one logical file to this site (full §4.1 step sequence).
  void replicate(const LogicalFileName& lfn, ReplicateDone done) {
    replicate(lfn, ReplicateOptions{}, std::move(done));
  }
  void replicate(const LogicalFileName& lfn, ReplicateOptions options,
                 ReplicateDone done);

  /// Fetches a remote site's export catalog (failure recovery service).
  void fetch_remote_catalog(
      net::NodeId remote, net::Port remote_port,
      std::function<void(Result<std::vector<PublishedFile>>)> done);

  /// Hook invoked for every notified file (before any auto-replication).
  std::function<void(const std::string& from_site, const PublishedFile&)>
      on_notification;

  /// Observer channel for every inbound replication transfer: per-stripe
  /// perf markers, restart markers and terminal summaries, all stamped
  /// with the source host as `peer`. The scheduler subscribes here to feed
  /// the bandwidth history of cost-aware replica selection [VTF01];
  /// dashboards and tests can subscribe alongside it.
  obs::TransferChannel& transfer_channel() noexcept {
    return transfer_channel_;
  }

  /// With auto_replicate_on_notify set, each notified file is enqueued
  /// here (the site's scheduler installs the hook) and counted in
  /// stats().notifications_queued.
  using ReplicationEnqueue = std::function<void(const PublishedFile&)>;
  void set_replication_enqueue(ReplicationEnqueue enqueue) {
    enqueue_replication_ = std::move(enqueue);
  }

  // ---- Introspection -----------------------------------------------------
  const std::map<LogicalFileName, PublishedFile>& export_catalog()
      const noexcept {
    return export_catalog_;
  }
  const GdmpServerStats& stats() const noexcept { return stats_; }
  const GdmpConfig& config() const noexcept { return config_; }
  SiteServices& site() noexcept { return site_; }
  CatalogClient& catalog() noexcept { return catalog_client_; }
  DataMover& data_mover() noexcept { return data_mover_; }
  StorageManager& storage_manager() noexcept { return storage_manager_; }
  rpc::RpcServer& rpc() noexcept { return rpc_; }
  const std::set<SubscriberInfo>& subscribers() const noexcept {
    return subscribers_;
  }

  void set_access_control(security::AccessControl acl) {
    acl_ = std::move(acl);
    use_acl_ = true;
  }

  /// Exposes the stats() counters under `scope` (e.g. "site.cern.gdmp");
  /// the "rpc" child scope instruments the request-manager RPC server and
  /// "catalog_cache" the catalog client's caches.
  void set_metrics(const obs::MetricsScope& scope);

  /// Site-local pool path of a logical file.
  std::string local_path_for(const LogicalFileName& lfn) const {
    return "/pool/" + lfn;
  }
  /// The gsiftp URL prefix this site publishes replicas under.
  std::string url_prefix() const;

  /// A (cached) RPC client to another GDMP server.
  rpc::RpcClient& peer(net::NodeId node, net::Port port);

  const HostResolver& resolver() const noexcept { return resolver_; }

 private:
  using Respond = rpc::RpcServer::Respond;

  Status authorize(security::Operation op,
                   const security::GsiContext& peer) const;

  void handle_subscribe(const security::GsiContext& peer,
                        std::span<const std::uint8_t> params,
                        Respond respond);
  void handle_unsubscribe(const security::GsiContext& peer,
                          std::span<const std::uint8_t> params,
                          Respond respond);
  void handle_notify(const security::GsiContext& peer,
                     std::span<const std::uint8_t> params, Respond respond);
  void handle_get_catalog(const security::GsiContext& peer, Respond respond);
  void handle_stage(const security::GsiContext& peer,
                    std::span<const std::uint8_t> params, Respond respond);
  void handle_release(const security::GsiContext& peer,
                      std::span<const std::uint8_t> params, Respond respond);
  void handle_delete(const security::GsiContext& peer,
                     std::span<const std::uint8_t> params, Respond respond);

  void notify_subscribers(const std::vector<PublishedFile>& files);
  void finish_replication(const LogicalFileName& lfn,
                          const PublishedFile& file,
                          const Uri& source,
                          net::NodeId source_node,
                          obs::SpanId span,
                          Result<gridftp::TransferResult> transfer,
                          ReplicateDone done);
  void count_replication_failure() noexcept { ++stats_.replication_failures; }

  SiteServices& site_;
  GdmpConfig config_;
  HostResolver resolver_;
  rpc::RpcServer rpc_;
  CatalogClient catalog_client_;
  DataMover data_mover_;
  StorageManager storage_manager_;
  FileTypeRegistry plugins_;
  ReplicationEnqueue enqueue_replication_;
  security::AccessControl acl_;
  bool use_acl_ = false;

  std::set<SubscriberInfo> subscribers_;
  std::map<LogicalFileName, PublishedFile> export_catalog_;
  std::map<std::uint64_t, std::unique_ptr<rpc::RpcClient>> peers_;
  GdmpServerStats stats_;
  obs::TransferChannel transfer_channel_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::core
