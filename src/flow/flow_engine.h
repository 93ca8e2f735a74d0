// Fluid flow engine: rate-based transfer simulation.
//
// Each active transfer is a flow with a payload rate; the engine assigns
// weighted max-min fair shares per link (fair_share.h). Flows with the same
// (src, dst, weight, window, pinned rate) share a path, an RTT-scaled
// weight and a window cap, so they always get the same rate: they form one
// *rate class*, and the class — not the flow — is what renegotiation
// re-rates and what the kernel schedules. A class keeps a per-flow service
// clock (`served`: bytes each member has moved since the class last
// filled), a flow is just a finish target on that clock, and the class
// holds one completion event for its earliest target (DESIGN.md §5f).
//
// Rates are renegotiated only when the flow set or a link capacity
// changes, and the renegotiation is *incremental*: it solves over the
// closure of links the change touched, folding unaffected classes in as
// fixed load, and expands only to links whose freed slack can actually be
// claimed (a resident class recorded that link as its bottleneck). Steady
// state allocates nothing: flow slots, classes (never freed) with their
// heaps and pending lists, and all solver scratch are pooled (DESIGN.md
// §5e kernel discipline). A class takes its route when it is created;
// routes must not change while the engine runs.
//
// Determinism: closure discovery follows event order (dirty list) and
// per-link insertion order, and a class completes its due flows in
// (target, join order); the only unordered container is a lookup-only
// Link* index that is never iterated.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/det_hash.h"
#include "common/types.h"
#include "flow/fair_share.h"
#include "flow/flow.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace gdmp::flow {

class FlowEngine {
 public:
  /// Completion callback. Fires exactly once per started flow — on drain
  /// (ok) or cancel (not ok) — never from inside start(). Invoked after the
  /// engine has fully retired the flow, so callbacks may start or cancel
  /// flows reentrantly. NOT invoked by the engine destructor (teardown
  /// discipline: in-flight work is dropped, like net::Link).
  using Completion = sim::InlineFunction<void(const FlowDone&), 64>;

  FlowEngine(sim::Simulator& simulator, net::Network& network,
             FluidConfig config = {});
  ~FlowEngine();

  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Starts a flow. The route must exist (compute_routes() has run) and be
  /// at least one link long. Returns an invalid id if unrouted.
  FlowId start(const FlowSpec& spec, Completion on_done);

  /// Cancels an active flow; its completion fires with ok=false before
  /// this returns. Stale / completed ids are a no-op returning false.
  bool cancel(FlowId id);

  bool active(FlowId id) const noexcept;
  /// Current payload rate (bits/s); 0 for inactive ids.
  BitsPerSec rate(FlowId id) const noexcept;
  /// Payload bytes delivered so far, settled to now(). During the modelled
  /// slow-start deficit this reads 0 (the window is still growing).
  Bytes transferred(FlowId id) const noexcept;

  /// Re-reads `link->config().bandwidth` and renegotiates the flows
  /// crossing it. Call after mutating a link the engine has seen; unknown
  /// links are a no-op.
  void on_link_changed(const net::Link* link);

  /// Offered payload load / payload capacity for a link the engine has
  /// routed flows over (0 for unknown links). Complements
  /// net::Link::busy_time() which only moves under the packet model.
  double link_utilization(const net::Link* link) const noexcept;

  /// Cumulative payload bytes fair-share flows have moved across `link`
  /// as of now() — settled credit plus each resident class's unsettled
  /// in-flight portion, so the value is exact between renegotiations.
  /// Pinned (background) flows are excluded: they model cross-traffic
  /// load, not transfers. 0 for unknown links.
  double link_bytes_moved(const net::Link* link) const noexcept;

  std::size_t active_flows() const noexcept { return active_count_; }
  const FlowEngineStats& stats() const noexcept { return stats_; }
  const FluidConfig& config() const noexcept { return config_; }
  sim::Simulator& simulator() noexcept { return simulator_; }

  /// Exposes the "active_flows" gauge and the "renegotiations",
  /// "links_recomputed" and "completed" counters under `scope`.
  void set_metrics(const obs::MetricsScope& scope);

 private:
  struct FlowState {
    FlowSpec spec{};
    Completion on_done{};
    std::uint32_t gen = 0;
    std::uint32_t cls = 0;       // rate class index
    std::uint32_t heap_pos = 0;  // slot in the class heap while joined
    bool in_use = false;
    bool joined = false;  // has a rate and a finish target (else pending)
    double target = 0.0;  // class `served` at which this flow drains
                          // (bytes + slow-start deficit past its join)
    std::uint64_t join_seq = 0;  // tie-break among equal targets
    SimTime started = 0;
  };

  /// Flows that always share one rate: same route, weight and window (or
  /// the same pinned rate). Created on first sight, never freed.
  struct ClassState {
    bool pinned = false;
    bool in_closure = false;
    Bytes window = 0;
    SimDuration rtt = 0;
    double weight_eff = 1.0;
    double cap = std::numeric_limits<double>::infinity();
    std::vector<std::int32_t> path;         // link indices, src → dst
    std::vector<std::int32_t> pos_in_link;  // this class's slot in each
                                            // link's classes vector
    double rate = 0.0;    // payload bits/s of each joined flow
    double served = 0.0;  // bytes served per joined flow as of settled_at
    SimTime settled_at = 0;
    std::int32_t bottleneck = -1;  // link index that froze the rate
    std::vector<std::uint32_t> heap;     // joined flows, min-heap on
                                         // (target, join_seq)
    std::vector<std::uint32_t> pending;  // started, awaiting a rate
    sim::EventHandle completion{};       // armed at the heap head's finish

    std::size_t size() const noexcept { return heap.size() + pending.size(); }
  };

  struct ClassKey {
    net::NodeId src = net::kInvalidNode;
    net::NodeId dst = net::kInvalidNode;
    double weight = 1.0;
    Bytes window = 0;
    BitsPerSec pinned_rate = 0;
    friend auto operator<=>(const ClassKey&, const ClassKey&) = default;
  };

  struct LinkState {
    const net::Link* link = nullptr;
    double capacity = 0.0;  // payload bits/s (wire bandwidth × efficiency)
    double pinned = 0.0;    // payload load of pinned flows
    std::vector<std::uint32_t> classes;  // non-empty fair-share classes
    double bytes_moved = 0.0;  // settled fair-share payload bytes
    bool dirty = false;
    std::int32_t share_index = -1;  // renegotiation scratch
  };

  std::int32_t intern_link(const net::Link* link);
  std::int32_t find_class(const FlowSpec& spec);
  std::uint32_t alloc_slot();
  void settle(ClassState& cls, SimTime now);
  double remaining_now(const FlowState& flow) const noexcept;
  SimTime finish_time(const ClassState& cls, double target) const noexcept;
  void mark_dirty(std::int32_t link_index);
  void schedule_renegotiation();
  void renegotiate();
  void join(std::uint32_t slot, double deficit);
  void arm(std::uint32_t class_index);
  void on_class_due(std::uint32_t class_index);
  void detach_class(std::uint32_t class_index);
  void complete(std::uint32_t slot);
  void retire(std::uint32_t slot, bool ok);

  // Class heap of joined flows, ordered by (target, join_seq).
  bool finishes_before(std::uint32_t a, std::uint32_t b) const noexcept;
  void heap_place(ClassState& cls, std::size_t pos, std::uint32_t slot);
  void heap_sift_up(ClassState& cls, std::size_t pos);
  void heap_sift_down(ClassState& cls, std::size_t pos);
  void heap_erase(ClassState& cls, std::size_t pos);

  sim::Simulator& simulator_;
  net::Network& network_;
  FluidConfig config_;

  std::vector<FlowState> flows_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;
  std::uint64_t next_join_seq_ = 0;

  std::vector<ClassState> classes_;
  std::map<ClassKey, std::uint32_t> class_index_;

  std::vector<LinkState> links_;
  common::UnorderedMap<const net::Link*, std::int32_t>
      link_index_;  // lookup-only

  std::vector<std::int32_t> dirty_links_;
  sim::EventHandle reneg_event_{};
  bool reneg_pending_ = false;

  // Renegotiation scratch, reused across solves.
  WaterFill solver_;
  std::vector<std::uint32_t> closure_classes_;
  std::vector<std::int32_t> solve_links_;
  std::vector<ShareFlow> share_flows_;
  std::vector<ShareLink> share_links_;
  std::vector<std::int32_t> membership_;
  std::vector<net::Link*> path_scratch_;

  FlowEngineStats stats_;

  /// Completion / renegotiation events may outlive the engine in the
  /// simulator queue; they hold this sentinel weakly.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::flow
