#include "testbed/grid.h"

namespace gdmp::testbed {
namespace {

/// Default watchdog thresholds (armed only when the heartbeat is on).
constexpr double kWatchQueueDepth = 1000.0;  ///< scheduler queue-depth ceiling
constexpr double kWatchSaturation = 0.95;    ///< uplink utilization ceiling
constexpr int kWatchSaturationTicks = 3;     ///< sustained ticks before firing
/// Conservation slack per uplink: bytes legitimately in flight (queue
/// backlog + bandwidth-delay product) before sent-vs-delivered drift is
/// alert-worthy. Packet model only.
constexpr Bytes kWatchConservationSlack = 4 * kMiB;

}  // namespace

Grid::Grid(GridConfig config)
    : config_(std::move(config)),
      network_(simulator_),
      ca_("GridCA", 0x5ca1ab1e ^ config_.seed),
      model_(objstore::EventModel::standard(config_.event_count)) {
  std::vector<net::GridSiteLink> links;
  links.reserve(config_.sites.size());
  for (const GridSiteSpec& spec : config_.sites) {
    links.push_back(net::GridSiteLink{spec.name, spec.wan});
  }
  topology_ = net::make_grid_topology(network_, links);

  // Central catalog host: LAN-attached to the core (the single LDAP server).
  net::Node& rc_host = network_.add_node("rc");
  net::LinkConfig rc_lan;
  rc_lan.bandwidth = 1000 * kMbps;
  rc_lan.propagation = 200 * kMicrosecond;
  rc_lan.queue_capacity = 4 * kMiB;
  network_.connect(rc_host, *topology_.core, rc_lan);
  network_.compute_routes();
  if (config_.transfer_model == flow::TransferModel::kFluid) {
    flow_engine_ = std::make_unique<flow::FlowEngine>(simulator_, network_);
    flow_engine_->set_metrics(metrics_.scope("grid.flow"));
  }
  catalog_node_ = rc_host.id();
  catalog_stack_ = std::make_unique<net::TcpStack>(simulator_, rc_host);
  constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;
  catalog_server_ = std::make_unique<core::CatalogServer>(
      *catalog_stack_, ca_,
      ca_.issue("/O=Grid/OU=rc/CN=replica-catalog", kYear));

  for (std::size_t i = 0; i < config_.sites.size(); ++i) {
    GridSiteSpec& spec = config_.sites[i];
    spec.site.gdmp.catalog_host = catalog_node_;
    // The grid's flow engine switches GDMP replication and third-party
    // XFER to the fluid plane together.
    spec.site.gdmp.transfer.flow_engine = flow_engine_.get();
    spec.site.ftp.flow_engine = flow_engine_.get();
    auto site = std::make_unique<Site>(simulator_, network_,
                                       *topology_.hosts[i], ca_, model_,
                                       spec.site);
    sites_.push_back(std::move(site));
    if (net::Link* up_link = uplink(i)) {
      if (flow_engine_) {
        // Fluid model: payloads never cross the link as packets, so its
        // busy-time gauge would read only control chatter. Publish the
        // flow engine's view instead (sample_uplink_utilization).
        const obs::MetricsScope scope =
            metrics_.scope("grid.uplink." + spec.name);
        fluid_uplinks_.push_back(FluidUplink{
            up_link, scope.gauge("utilization"),
            scope.counter("bytes_moved"), 0});
      } else {
        up_link->set_metrics(metrics_.scope("grid.uplink." + spec.name));
      }
    }

    if (spec.cross_traffic > 0) {
      if (flow_engine_) {
        // Fluid analogue of the CBR pair: a pinned (unresponsive) flow in
        // each direction takes `cross_traffic` off the uplink with zero
        // per-packet events. Unbounded, so they never complete.
        for (const auto& [src, dst] :
             {std::pair{topology_.hosts[i], topology_.core},
              std::pair{topology_.core, topology_.hosts[i]}}) {
          flow::FlowSpec cross;
          cross.src = src->id();
          cross.dst = dst->id();
          cross.bytes = flow::kUnboundedBytes;
          cross.pinned_rate = spec.cross_traffic;
          (void)flow_engine_->start(cross, [](const flow::FlowDone&) {});
        }
      } else {
        // Shared production link: constant-bit-rate background in both
        // directions of the site uplink (`cross_traffic` each way).
        net::CbrConfig cbr;
        cbr.rate = spec.cross_traffic;
        cross_sinks_.push_back(
            std::make_unique<net::DatagramSink>(*topology_.hosts[i]));
        auto up = std::make_unique<net::CbrSource>(
            network_, *topology_.hosts[i], *topology_.core, cbr,
            config_.seed ^ (0x1111ULL * (i + 1)));
        auto down = std::make_unique<net::CbrSource>(
            network_, *topology_.core, *topology_.hosts[i], cbr,
            config_.seed ^ (0x2222ULL * (i + 1)));
        up->start();
        down->start();
        cross_sources_.push_back(std::move(up));
        cross_sources_.push_back(std::move(down));
      }
    }
  }

  if (config_.heartbeat_period > 0) {
    obs::HeartbeatConfig hb;
    hb.period = config_.heartbeat_period;
    heartbeat_ = std::make_unique<obs::HeartbeatReporter>(simulator_, hb);
    heartbeat_->add_registry(&metrics_);
    for (auto& site : sites_) heartbeat_->add_registry(&site->metrics());
    heartbeat_->add_sampler([this] { sample_uplink_utilization(); });

    obs::WatchRule queue;
    queue.name = "queue_depth_ceiling";
    queue.kind = obs::WatchRule::Kind::kGaugeCeiling;
    queue.metric = "site.*.sched.queue_depth";
    queue.threshold = kWatchQueueDepth;
    heartbeat_->watchdog().add_rule(std::move(queue));

    obs::WatchRule saturation;
    saturation.name = "link_saturation";
    saturation.kind = obs::WatchRule::Kind::kGaugeCeiling;
    saturation.metric = "grid.uplink.*.utilization";
    saturation.threshold = kWatchSaturation;
    saturation.for_ticks = kWatchSaturationTicks;
    heartbeat_->watchdog().add_rule(std::move(saturation));

    if (!flow_engine_) {
      // Packet model only: the fluid engine conserves by construction
      // (there are no per-uplink delivered counters to check against).
      obs::WatchRule conservation;
      conservation.name = "link_conservation";
      conservation.kind = obs::WatchRule::Kind::kConservation;
      conservation.metric = "grid.uplink.*.bytes_sent";
      conservation.metric_b = "grid.uplink.*.bytes_delivered";
      conservation.threshold = static_cast<double>(kWatchConservationSlack);
      heartbeat_->watchdog().add_rule(std::move(conservation));
    }
    heartbeat_->start();
  }
}

Status Grid::start() {
  if (const Status status = catalog_server_->start(); !status.is_ok()) {
    return status;
  }
  for (auto& site : sites_) {
    if (const Status status = site->start(); !status.is_ok()) return status;
  }
  return Status::ok();
}

Site* Grid::find_site(const std::string& name) noexcept {
  for (auto& site : sites_) {
    if (site->name() == name) return site.get();
  }
  return nullptr;
}

net::Link* Grid::uplink(std::size_t index) noexcept {
  return network_.link_between(*topology_.gateways[index], *topology_.core);
}

void Grid::sample_uplink_utilization() {
  if (flow_engine_) {
    for (FluidUplink& up : fluid_uplinks_) {
      up.utilization->set(flow_engine_->link_utilization(up.link));
      // Mirror the engine's (double) byte integral into a monotone
      // counter; the fractional remainder carries to the next sample.
      const auto moved = static_cast<std::int64_t>(
          flow_engine_->link_bytes_moved(up.link));
      if (moved > up.published_bytes) {
        up.bytes_moved->add(moved - up.published_bytes);
        up.published_bytes = moved;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (net::Link* link = uplink(i)) (void)link->sample_utilization();
  }
}

GridConfig two_site_config(const std::string& a, const std::string& b,
                           BitsPerSec cross_traffic) {
  GridConfig config;
  net::WanConfig wan;
  // Two legs in series: split the 125 ms CERN–ANL RTT across them.
  wan.wan_one_way_delay = 31 * kMillisecond + 250 * kMicrosecond;
  GridSiteSpec site_a;
  site_a.name = a;
  site_a.wan = wan;
  site_a.cross_traffic = cross_traffic;
  GridSiteSpec site_b;
  site_b.name = b;
  site_b.wan = wan;
  config.sites = {site_a, site_b};
  return config;
}

}  // namespace gdmp::testbed
