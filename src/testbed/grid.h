// Multi-site Data Grid testbed assembly.
//
// Builds the star-of-regional-centres topology (hosts behind site gateways
// around a WAN core), a central replica-catalog host ("a central replica
// catalog and a single LDAP server"), per-site GDMP/GridFTP stacks, and
// optional cross-traffic on each site uplink (the shared production links
// of §6).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flow/flow_engine.h"
#include "gdmp/catalog_service.h"
#include "net/cross_traffic.h"
#include "net/topology.h"
#include "obs/heartbeat.h"
#include "testbed/site.h"

namespace gdmp::testbed {

struct GridSiteSpec {
  std::string name;
  net::WanConfig wan{};
  SiteConfig site{};
  /// Cross traffic occupying this site's uplink toward the core (0 = none).
  BitsPerSec cross_traffic = 0;
};

struct GridConfig {
  std::vector<GridSiteSpec> sites;
  std::int64_t event_count = 100'000;
  std::uint64_t seed = 42;
  /// The scenario's transfer model. kFluid builds one shared FlowEngine,
  /// threads it into every site (its pointer is then the only switch
  /// below this config), and replaces CBR cross traffic with pinned flows
  /// (same uplink occupancy, zero packet events).
  flow::TransferModel transfer_model = flow::TransferModel::kPacket;

  /// Heartbeat quantum for the grid observatory (0 = no heartbeat). When
  /// set, the grid builds an obs::HeartbeatReporter over its own registry
  /// plus every site's, samples uplink utilization each tick, arms the
  /// default watchdog rules, and appends one JSONL rollup per tick to
  /// $GDMP_ROLLUP_FILE (see DESIGN.md §5g).
  SimDuration heartbeat_period = 0;
};

class Grid {
 public:
  explicit Grid(GridConfig config);

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Starts every server. Call once before running the simulator.
  Status start();

  sim::Simulator& simulator() noexcept { return simulator_; }
  net::Network& network() noexcept { return network_; }
  security::CertificateAuthority& ca() noexcept { return ca_; }
  const objstore::EventModel& model() const noexcept { return model_; }
  core::CatalogServer& catalog() noexcept { return *catalog_server_; }
  net::NodeId catalog_node() const noexcept { return catalog_node_; }

  Site& site(std::size_t index) noexcept { return *sites_[index]; }
  Site* find_site(const std::string& name) noexcept;
  std::size_t site_count() const noexcept { return sites_.size(); }

  /// Runs the simulation until `deadline`.
  std::size_t run_until(SimTime deadline) {
    return simulator_.run_until(deadline);
  }

  /// The bottleneck link from site `index`'s gateway toward the core.
  net::Link* uplink(std::size_t index) noexcept;

  /// Null unless transfer_model == kFluid.
  flow::FlowEngine* flow_engine() noexcept { return flow_engine_.get(); }

  /// Grid-scope instruments: "grid.flow.*" (fluid engine) and
  /// "grid.uplink.<site>.*" (busy-time fraction gauges plus byte counters).
  /// Read it only while the grid is alive: it points into the engine and
  /// the uplinks.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Publishes the busy-time fraction of every site uplink since the last
  /// call (satellite gauges are caller-sampled; nothing self-schedules).
  /// Under the fluid model the gauges read the flow engine's link
  /// utilization instead, and a "bytes_moved" counter per uplink mirrors
  /// FlowEngine::link_bytes_moved.
  void sample_uplink_utilization();

  /// Null unless GridConfig::heartbeat_period > 0.
  obs::HeartbeatReporter* heartbeat() noexcept { return heartbeat_.get(); }

 private:
  GridConfig config_;
  sim::Simulator simulator_;
  net::Network network_;
  security::CertificateAuthority ca_;
  objstore::EventModel model_;
  net::GridTopology topology_;
  // The flow engine and the packet uplinks expose their counts into the
  // registry, so it points into them. The engine is destroyed first, which
  // is safe because nothing reads the registry during teardown (the
  // heartbeat goes before both).
  obs::MetricsRegistry metrics_;
  std::unique_ptr<flow::FlowEngine> flow_engine_;
  net::NodeId catalog_node_ = net::kInvalidNode;
  std::unique_ptr<net::TcpStack> catalog_stack_;
  std::unique_ptr<core::CatalogServer> catalog_server_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::unique_ptr<net::CbrSource>> cross_sources_;
  std::vector<std::unique_ptr<net::DatagramSink>> cross_sinks_;

  /// Fluid-model uplink instruments, pushed at each sample because both are
  /// defined by sampling the engine's byte integral (the packet model
  /// publishes its gauge through net::Link::sample_utilization instead).
  struct FluidUplink {
    net::Link* link = nullptr;
    obs::Gauge* utilization = nullptr;
    obs::Counter* bytes_moved = nullptr;
    std::int64_t published_bytes = 0;  // already mirrored into the counter
  };
  std::vector<FluidUplink> fluid_uplinks_;

  // Declared after the sites (its store caches pointers into their
  // registries) and destroyed before them.
  std::unique_ptr<obs::HeartbeatReporter> heartbeat_;
};

/// The classic two-site CERN↔ANL path used throughout §6, as a grid.
GridConfig two_site_config(const std::string& a = "cern",
                           const std::string& b = "anl",
                           BitsPerSec cross_traffic = 0);

}  // namespace gdmp::testbed
