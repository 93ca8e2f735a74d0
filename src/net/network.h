// Network fabric: owns nodes, builds links, computes static routes.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/det_hash.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace gdmp::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a node; names must be unique (they serve as hostnames).
  Node& add_node(std::string name);

  /// Connects two nodes with a symmetric pair of unidirectional links.
  /// Call `compute_routes()` after the topology is complete.
  void connect(Node& a, Node& b, const LinkConfig& config);

  /// Connects with asymmetric configurations (a→b and b→a).
  void connect(Node& a, Node& b, const LinkConfig& ab, const LinkConfig& ba);

  /// Recomputes shortest-path (min propagation delay, then hop count)
  /// routing tables for every node. Must be called before traffic flows and
  /// after any topology change.
  void compute_routes();

  Node* find(std::string_view name) noexcept;
  Node& node(NodeId id) noexcept { return *nodes_[id]; }
  const Node& node(NodeId id) const noexcept { return *nodes_[id]; }

  /// The link carrying traffic from `a` toward neighbor `b`; null if the
  /// nodes are not adjacent. Exposed so benches can inspect bottleneck
  /// queue statistics.
  Link* link_between(const Node& a, const Node& b) noexcept;

  /// Appends the directed links a packet from `from` to `to` would
  /// traverse (routing tables from compute_routes()). Returns false —
  /// leaving `out` untouched beyond prior contents — when no route
  /// exists. The fluid transfer model (src/flow) uses this to pin a
  /// flow's path once at start instead of routing per segment.
  bool path_links(NodeId from, NodeId to, std::vector<Link*>& out);

  sim::Simulator& simulator() noexcept { return simulator_; }

 private:
  sim::Simulator& simulator_;
  /// Every link's in-flight packets. Declared before nodes_, so it outlives
  /// the links.
  InFlightPool in_flight_;
  std::vector<std::unique_ptr<Node>> nodes_;
  common::UnorderedMap<std::string, NodeId> by_name_;  // lookup-only
};

}  // namespace gdmp::net
