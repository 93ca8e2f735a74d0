#include "net/network.h"

#include <cassert>
#include <limits>
#include <queue>

namespace gdmp::net {

Node& Network::add_node(std::string name) {
  assert(!by_name_.contains(name) && "duplicate node name");
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, name));
  by_name_.emplace(std::move(name), id);
  return *nodes_.back();
}

void Network::connect(Node& a, Node& b, const LinkConfig& config) {
  connect(a, b, config, config);
}

void Network::connect(Node& a, Node& b, const LinkConfig& ab,
                      const LinkConfig& ba) {
  assert(&a != &b && "self-links are not supported");
  Node* pb = &b;
  Node* pa = &a;
  a.interfaces_.push_back(Node::Interface{
      b.id(), std::make_unique<Link>(
                  simulator_, in_flight_, ab,
                  [pb](const Packet& p) { pb->receive(p); })});
  b.interfaces_.push_back(Node::Interface{
      a.id(), std::make_unique<Link>(
                  simulator_, in_flight_, ba,
                  [pa](const Packet& p) { pa->receive(p); })});
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  for (auto& node : nodes_) {
    node->next_hop_interface_.assign(n, -1);
  }
  // Dijkstra from every node over propagation delay (hop count as a
  // deterministic tie-break). Topologies here are tiny (tens of nodes), so
  // O(V * E log V) is irrelevant.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<SimDuration> dist(n, std::numeric_limits<SimDuration>::max());
    std::vector<NodeId> prev(n, kInvalidNode);
    using QEntry = std::pair<SimDuration, NodeId>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> heap;
    dist[src] = 0;
    heap.emplace(0, static_cast<NodeId>(src));
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (const auto& iface : nodes_[u]->interfaces_) {
        const NodeId v = iface.peer;
        // +1ns per hop keeps paths with equal delay but fewer hops preferred.
        const SimDuration nd = d + iface.link->config().propagation + 1;
        if (nd < dist[v]) {
          dist[v] = nd;
          prev[v] = static_cast<NodeId>(u);
          heap.emplace(nd, v);
        }
      }
    }
    // For each destination, walk back to find the first hop from src.
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src || prev[dst] == kInvalidNode) continue;
      NodeId hop = static_cast<NodeId>(dst);
      while (prev[hop] != static_cast<NodeId>(src)) hop = prev[hop];
      // Find the interface on src pointing at `hop`.
      for (std::size_t i = 0; i < nodes_[src]->interfaces_.size(); ++i) {
        if (nodes_[src]->interfaces_[i].peer == hop) {
          nodes_[src]->next_hop_interface_[dst] =
              static_cast<std::int32_t>(i);
          break;
        }
      }
    }
  }
}

Node* Network::find(std::string_view name) noexcept {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : nodes_[it->second].get();
}

bool Network::path_links(NodeId from, NodeId to, std::vector<Link*>& out) {
  if (from == to || from < 0 || to < 0 ||
      static_cast<std::size_t>(from) >= nodes_.size() ||
      static_cast<std::size_t>(to) >= nodes_.size()) {
    return false;
  }
  const std::size_t before = out.size();
  NodeId at = from;
  // Routes are loop-free by construction; the hop bound guards a walk
  // started before compute_routes() refreshed a grown topology.
  for (std::size_t hops = 0; hops < nodes_.size(); ++hops) {
    const Node& node = *nodes_[at];
    if (static_cast<std::size_t>(to) >= node.next_hop_interface_.size()) {
      out.resize(before);
      return false;
    }
    const std::int32_t iface = node.next_hop_interface_[to];
    if (iface < 0) {
      out.resize(before);
      return false;
    }
    out.push_back(node.interfaces_[iface].link.get());
    at = node.interfaces_[iface].peer;
    if (at == to) return true;
  }
  out.resize(before);
  return false;
}

Link* Network::link_between(const Node& a, const Node& b) noexcept {
  for (const auto& iface : a.interfaces_) {
    if (iface.peer == b.id()) return iface.link.get();
  }
  return nullptr;
}

}  // namespace gdmp::net
