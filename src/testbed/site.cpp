#include "testbed/site.h"

namespace gdmp::testbed {
namespace {

constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;

core::SiteServices make_services(Site& owner, const std::string& name,
                                 sim::Simulator& simulator,
                                 net::TcpStack& stack,
                                 storage::DiskPool& pool,
                                 storage::StorageBackend* backend,
                                 objstore::Federation* federation,
                                 security::CertificateAuthority& ca) {
  (void)owner;
  return core::SiteServices{
      name,       simulator, stack,
      pool,       backend,   federation,
      ca,         ca.issue("/O=Grid/OU=" + name + "/CN=gdmp-server", kYear)};
}

// Threads the site's flow engine into every embedded config that picks a
// data plane, so one SiteConfig field switches GDMP replication and
// third-party XFER together.
SiteConfig normalize(SiteConfig config) {
  config.gdmp.transfer.flow_engine = config.flow_engine;
  config.ftp.flow_engine = config.flow_engine;
  return config;
}

}  // namespace

Site::Site(sim::Simulator& simulator, net::Network& network, net::Node& host,
           security::CertificateAuthority& ca,
           const objstore::EventModel& model, SiteConfig config)
    : config_(normalize(std::move(config))),
      host_(host),
      stack_(simulator, host),
      disk_(simulator, config_.disk),
      pool_(config_.pool_capacity, disk_),
      mss_(config_.has_mss ? std::make_unique<storage::MassStorageSystem>(
                                 simulator, config_.mss)
                           : nullptr),
      backend_(mss_ ? (config_.use_script_stager
                           ? std::unique_ptr<storage::StorageBackend>(
                                 std::make_unique<storage::ScriptStagerBackend>(
                                     simulator, *mss_))
                           : std::unique_ptr<storage::StorageBackend>(
                                 std::make_unique<storage::HrmBackend>(
                                     simulator, *mss_)))
                    : nullptr),
      federation_(config_.has_federation
                      ? std::make_unique<objstore::Federation>(
                            host.name() + "-fd", model, pool_)
                      : nullptr),
      persistency_(federation_ ? std::make_unique<objstore::PersistencyLayer>(
                                     simulator, *federation_)
                               : nullptr),
      services_(make_services(*this, host.name(), simulator, stack_, pool_,
                              backend_.get(), federation_.get(), ca)),
      ftp_server_(stack_, pool_, ca, services_.credential, config_.ftp),
      gdmp_server_(services_, config_.gdmp,
                   [&network](const std::string& hostname) -> Result<net::NodeId> {
                     net::Node* node = network.find(hostname);
                     if (node == nullptr) {
                       return make_error(ErrorCode::kNotFound,
                                         "unknown host: " + hostname);
                     }
                     return node->id();
                   }),
      gdmp_client_(gdmp_server_),
      objrep_(gdmp_server_, config_.objrep),
      scheduler_(gdmp_server_, config_.sched) {
  if (!config_.enable_metrics) return;
  // Every subsystem exposes its counts to the site registry under a
  // labelled scope; Site::metrics().dump() is the one-stop view.
  const obs::MetricsScope root = metrics_.scope("site." + host_.name());
  stack_.set_metrics(root.scope("net.tcp"));
  pool_.set_metrics(root.scope("storage.pool"));
  ftp_server_.set_metrics(root.scope("gridftp"));
  ftp_server_.set_channel(&gdmp_server_.transfer_channel());
  gdmp_server_.set_metrics(root.scope("gdmp"));
  scheduler_.set_metrics(root.scope("sched"));

  // The transfer channel also feeds the registry: throughput distribution
  // and restart/outcome counts for every replication transfer.
  const obs::MetricsScope transfer = root.scope("transfer");
  obs::TransferChannel::Observer to_registry;
  to_registry.on_complete = [completed = transfer.counter("completed"),
                             failed = transfer.counter("failed"),
                             mbps = transfer.histogram("mbps"),
                             seconds = transfer.histogram("seconds")](
                                const obs::TransferSummary& summary) {
    if (!summary.ok) {
      failed->add();
      return;
    }
    completed->add();
    mbps->observe(summary.mbps);
    // Wall-of-the-grid transfer time: the campaign report's percentile
    // source ("transfer economics").
    seconds->observe(to_seconds(summary.elapsed));
  };
  to_registry.on_restart = [restarts = transfer.counter("restarts")](
                               const obs::RestartMarker&) {
    restarts->add();
  };
  gdmp_server_.transfer_channel().subscribe(std::move(to_registry));
}

Status Site::start() {
  if (const Status status = ftp_server_.start(); !status.is_ok()) {
    return status;
  }
  return gdmp_server_.start();
}

}  // namespace gdmp::testbed
