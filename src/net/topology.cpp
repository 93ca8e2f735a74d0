#include "net/topology.h"

namespace gdmp::net {
namespace {

/// Every host's LAN leg to its gateway router: gigabit, short and deep.
constexpr LinkConfig kLan{.bandwidth = 1000 * kMbps,
                          .propagation = 50 * kMicrosecond,
                          .queue_capacity = 4 * kMiB};

}  // namespace

WanPath make_wan_path(Network& network, const std::string& a,
                      const std::string& b, const WanConfig& config) {
  WanPath path;
  path.host_a = &network.add_node(a);
  path.router_a = &network.add_node(a + "-gw");
  path.router_b = &network.add_node(b + "-gw");
  path.host_b = &network.add_node(b);

  LinkConfig wan;
  wan.bandwidth = config.wan_bandwidth;
  wan.propagation = config.wan_one_way_delay;
  wan.queue_capacity = config.wan_queue;

  network.connect(*path.host_a, *path.router_a, kLan);
  network.connect(*path.router_a, *path.router_b, wan);
  network.connect(*path.router_b, *path.host_b, kLan);
  network.compute_routes();

  path.bottleneck_ab = network.link_between(*path.router_a, *path.router_b);
  path.bottleneck_ba = network.link_between(*path.router_b, *path.router_a);
  return path;
}

GridTopology make_grid_topology(Network& network,
                                const std::vector<GridSiteLink>& sites) {
  GridTopology topo;
  topo.core = &network.add_node("core");
  for (const GridSiteLink& site : sites) {
    Node& host = network.add_node(site.site_name);
    Node& gw = network.add_node(site.site_name + "-gw");

    LinkConfig wan;
    wan.bandwidth = site.wan.wan_bandwidth;
    // The per-site delay is the site→core leg; a two-site path sees the sum.
    wan.propagation = site.wan.wan_one_way_delay;
    wan.queue_capacity = site.wan.wan_queue;

    network.connect(host, gw, kLan);
    network.connect(gw, *topo.core, wan);
    topo.hosts.push_back(&host);
    topo.gateways.push_back(&gw);
  }
  network.compute_routes();
  return topo;
}

}  // namespace gdmp::net
