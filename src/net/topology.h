// Canonical topologies used by tests, examples and benches.
#pragma once

#include <string>
#include <vector>

#include "net/network.h"

namespace gdmp::net {

/// Two LAN-attached hosts separated by a WAN bottleneck:
///
///   hostA --LAN-- routerA ====WAN==== routerB --LAN-- hostB
///
/// The WAN link carries the configured bandwidth / one-way delay and owns
/// the drop-tail bottleneck queue; LAN links are fast and short.
struct WanPath {
  Node* host_a = nullptr;
  Node* router_a = nullptr;
  Node* router_b = nullptr;
  Node* host_b = nullptr;
  /// The bottleneck link a→b (inspect for queue drops).
  Link* bottleneck_ab = nullptr;
  Link* bottleneck_ba = nullptr;
};

struct WanConfig {
  BitsPerSec wan_bandwidth = 45 * kMbps;
  /// One-way propagation; the paper's CERN–ANL RTT of 125 ms is 62.5 ms
  /// each way.
  SimDuration wan_one_way_delay = 62 * kMillisecond + 500 * kMicrosecond;
  /// Bottleneck router buffer. Default ≈ 500 ms of the 45 Mbit/s line rate,
  /// typical for DS3 router interfaces of the era (calibrated so tuned
  /// parallel streams show the Figure 6 shape; see EXPERIMENTS.md).
  Bytes wan_queue = 2816 * kKiB;
};

/// Builds the CERN–ANL style dumbbell. Node names are
/// "<a>", "<a>-gw", "<b>-gw", "<b>". Call after constructing Network;
/// computes routes.
WanPath make_wan_path(Network& network, const std::string& a,
                      const std::string& b, const WanConfig& config = {});

/// A multi-site grid: every site gets a host + gateway router, and all
/// gateways connect to a WAN core router ("core") with per-site WAN
/// configurations. Models the regional-centre topology of §1.
struct GridSiteLink {
  std::string site_name;
  WanConfig wan;
};

struct GridTopology {
  Node* core = nullptr;
  std::vector<Node*> hosts;     // parallel to the input sites
  std::vector<Node*> gateways;  // parallel to the input sites
};

GridTopology make_grid_topology(Network& network,
                                const std::vector<GridSiteLink>& sites);

}  // namespace gdmp::net
