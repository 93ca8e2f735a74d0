// One grid site, fully assembled: host, TCP stack, disk pool, optional MSS,
// Objectivity federation, GridFTP server, GDMP server/client and the object
// replication service. The regional-centre building block of §1.
#pragma once

#include <memory>
#include <string>

#include "flow/transfer_model.h"
#include "gdmp/client.h"
#include "gdmp/server.h"
#include "gridftp/server.h"
#include "net/network.h"
#include "objrep/replicator.h"
#include "objstore/persistency.h"
#include "obs/metrics.h"
#include "sched/replication_scheduler.h"

namespace gdmp::testbed {

struct SiteConfig {
  Bytes pool_capacity = 1000 * kGiB;
  storage::DiskConfig disk{};
  bool has_mss = false;
  storage::MssConfig mss{};
  /// Use the legacy staging-script plug-in instead of HRM (§4.4 ablation).
  bool use_script_stager = false;
  bool has_federation = true;
  core::GdmpConfig gdmp{};
  gridftp::FtpServerConfig ftp{};
  objrep::ObjectReplicationConfig objrep{};
  sched::SchedulerConfig sched{};
  /// When false, no subsystem registers its counts in the site registry
  /// and the transfer channel gets no registry subscriber — the
  /// compiled-in-but-disabled mode bench_obs_overhead measures. The
  /// subsystems count the same events either way.
  bool enable_metrics = true;
  /// Transfer-model seam: when set, every replication payload this site
  /// originates (GDMP pulls, XFER pushes) moves as rate-based flows on this
  /// engine instead of per-segment TCP streams. Copied into gdmp.transfer
  /// and ftp at construction, so leave those fields alone. Not owned.
  flow::FlowEngine* flow_engine = nullptr;
};

class Site {
 public:
  Site(sim::Simulator& simulator, net::Network& network, net::Node& host,
       security::CertificateAuthority& ca, const objstore::EventModel& model,
       SiteConfig config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Starts the GridFTP and GDMP servers.
  Status start();

  const std::string& name() const noexcept { return host_.name(); }
  net::Node& host() noexcept { return host_; }
  net::TcpStack& stack() noexcept { return stack_; }
  storage::DiskPool& pool() noexcept { return pool_; }
  storage::MassStorageSystem* mss() noexcept { return mss_.get(); }
  objstore::Federation* federation() noexcept { return federation_.get(); }
  objstore::PersistencyLayer* persistency() noexcept {
    return persistency_.get();
  }
  gridftp::FtpServer& ftp_server() noexcept { return ftp_server_; }
  core::GdmpServer& gdmp_server() noexcept { return gdmp_server_; }
  core::GdmpClient& gdmp() noexcept { return gdmp_client_; }
  objrep::ObjectReplicationService& objrep() noexcept { return objrep_; }
  sched::ReplicationScheduler& scheduler() noexcept { return scheduler_; }
  /// The site's metric registry; every subsystem exposes its counts under
  /// "site.<name>.<subsystem>.". metrics().dump() is the one-stop view.
  /// Read it only while the site is alive: it points into the subsystems.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  const SiteConfig& config() const noexcept { return config_; }
  const security::Certificate& credential() const noexcept {
    return services_.credential;
  }

 private:
  SiteConfig config_;
  net::Node& host_;
  // The subsystems expose their counts into the registry, so it points
  // into them. It is destroyed after them, which is safe because nothing
  // reads it during teardown (a grid's heartbeat goes first).
  obs::MetricsRegistry metrics_;
  net::TcpStack stack_;
  storage::Disk disk_;
  storage::DiskPool pool_;
  std::unique_ptr<storage::MassStorageSystem> mss_;
  std::unique_ptr<storage::StorageBackend> backend_;
  std::unique_ptr<objstore::Federation> federation_;
  std::unique_ptr<objstore::PersistencyLayer> persistency_;
  core::SiteServices services_;
  gridftp::FtpServer ftp_server_;
  core::GdmpServer gdmp_server_;
  core::GdmpClient gdmp_client_;
  objrep::ObjectReplicationService objrep_;
  // Last member: attaches to gdmp_server_ on construction and must detach
  // (destruct) before it.
  sched::ReplicationScheduler scheduler_;
};

}  // namespace gdmp::testbed
