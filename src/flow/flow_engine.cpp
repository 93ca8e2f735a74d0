#include "flow/flow_engine.h"

#include <algorithm>
#include <cmath>

#include "net/tcp.h"

namespace gdmp::flow {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Payload fraction of raw link bandwidth: TCP's MSS rides in a wire
/// footprint of MSS plus the TCP/IP header (1460 of 1500 bytes).
constexpr double kEfficiency =
    static_cast<double>(net::kMss) /
    static_cast<double>(net::kMss + net::Packet::kHeaderBytes);
/// TCP's initial congestion window, where the slow-start deficit starts.
constexpr double kInitialWindow =
    static_cast<double>(net::kInitialCwndSegments * net::kMss);
/// RTT-weighted shares: effective weight = weight * reference RTT / RTT,
/// the long-run TCP bias that keeps parallel-stream tuning meaningful.
constexpr double kReferenceRttSeconds = to_seconds(100 * kMillisecond);
/// Rate floor so completions stay finite under extreme overload.
constexpr double kMinRate = 1 * kKbps;
/// Max dirty-closure expansion rounds per renegotiation before accepting
/// residual slack (bounds worst-case work; see fair_share.h).
constexpr int kMaxRounds = 8;
/// Link slack below which under-fill is not propagated (bits/s).
constexpr double kSlackEpsilon = 1 * kKbps;
/// Finish instant of a flow that never drains (unbounded background
/// flows, or rates floored to nothing): it gets no completion event.
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Payload bytes actually delivered (the slow-start deficit drains first,
/// so early on this reads 0).
Bytes delivered_bytes(Bytes total, double remaining) noexcept {
  const double done = static_cast<double>(total) - remaining;
  if (done <= 0.0) return 0;
  if (done >= static_cast<double>(total)) return total;
  return static_cast<Bytes>(done);
}

}  // namespace

FlowEngine::FlowEngine(sim::Simulator& simulator, net::Network& network,
                       FluidConfig config)
    : simulator_(simulator), network_(network), config_(config) {}

FlowEngine::~FlowEngine() {
  for (const ClassState& cls : classes_) {
    simulator_.cancel(cls.completion);
  }
  simulator_.cancel(reneg_event_);
  // Teardown discipline (see Completion): parked completions are dropped
  // uninvoked.
  flows_.clear();
}

void FlowEngine::set_metrics(const obs::MetricsScope& scope) {
  scope.expose_gauge("active_flows",
                     [this] { return static_cast<double>(active_count_); });
  scope.expose("renegotiations", &stats_.renegotiations);
  scope.expose("links_recomputed", &stats_.links_recomputed);
  scope.expose("completed", &stats_.flows_completed);
}

std::int32_t FlowEngine::intern_link(const net::Link* link) {
  const auto [it, inserted] =
      link_index_.try_emplace(link, static_cast<std::int32_t>(links_.size()));
  if (inserted) {
    LinkState state;
    state.link = link;
    state.capacity = link->config().bandwidth * kEfficiency;
    links_.push_back(std::move(state));
  }
  return it->second;
}

std::int32_t FlowEngine::find_class(const FlowSpec& spec) {
  ClassKey key;
  key.src = spec.src;
  key.dst = spec.dst;
  key.weight = spec.weight;
  key.window = spec.window;
  key.pinned_rate = spec.pinned_rate;
  const auto it = class_index_.find(key);
  if (it != class_index_.end()) return static_cast<std::int32_t>(it->second);

  path_scratch_.clear();
  if (!network_.path_links(spec.src, spec.dst, path_scratch_) ||
      path_scratch_.empty()) {
    return -1;
  }
  ClassState cls;
  cls.pinned = spec.pinned_rate > 0;
  cls.window = spec.window;
  SimDuration one_way = 0;
  for (net::Link* link : path_scratch_) {
    one_way += link->config().propagation;
    cls.path.push_back(intern_link(link));
  }
  cls.pos_in_link.assign(cls.path.size(), -1);
  cls.rtt = std::max<SimDuration>(2 * one_way, kMicrosecond);
  const double rtt_sec = to_seconds(cls.rtt);
  cls.weight_eff =
      std::max(spec.weight, 1e-9) * kReferenceRttSeconds / rtt_sec;
  cls.cap = spec.window > 0
                ? static_cast<double>(spec.window) * 8.0 / rtt_sec
                : kInf;
  const auto index = static_cast<std::uint32_t>(classes_.size());
  classes_.push_back(std::move(cls));
  class_index_.emplace(key, index);
  return static_cast<std::int32_t>(index);
}

std::uint32_t FlowEngine::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  flows_.emplace_back();
  flows_.back().gen = 1;
  // Keep the free list's capacity ahead of the slot pool (same idiom as the
  // event heap): retire() can then push a slot without ever allocating, even
  // if every flow completes at once.
  if (free_slots_.capacity() < flows_.size()) {
    free_slots_.reserve(flows_.size() * 2);
  }
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

FlowId FlowEngine::start(const FlowSpec& spec, Completion on_done) {
  const std::int32_t found = find_class(spec);
  if (found < 0) {
    // gdmp-lint: dropped-ok — unrouted flow never started; header contract fires completions for started flows only
    return FlowId{};
  }
  const auto ci = static_cast<std::uint32_t>(found);

  const std::uint32_t slot = alloc_slot();
  FlowState& flow = flows_[slot];
  flow.spec = spec;
  flow.on_done = std::move(on_done);
  flow.cls = ci;
  flow.in_use = true;
  flow.joined = false;
  flow.started = simulator_.now();

  ClassState& cls = classes_[ci];
  const double pinned_load = spec.pinned_rate * kEfficiency;
  if (cls.size() == 0) {
    // The class (re)fills: restart its clock so targets are plain byte
    // counts, and list it on its links.
    cls.served = 0.0;
    cls.settled_at = simulator_.now();
    cls.rate = cls.pinned ? std::max(pinned_load, kMinRate) : 0.0;
    cls.bottleneck = -1;
    for (std::size_t i = 0; i < cls.path.size() && !cls.pinned; ++i) {
      LinkState& link = links_[cls.path[i]];
      cls.pos_in_link[i] = static_cast<std::int32_t>(link.classes.size());
      link.classes.push_back(ci);
    }
  }
  // Reserve ahead (geometrically) so join() never grows the heap.
  if (cls.heap.capacity() < cls.size() + 1) {
    cls.heap.reserve(2 * cls.size() + 2);
  }
  for (const std::int32_t li : cls.path) {
    links_[li].pinned += pinned_load;
    mark_dirty(li);
  }

  ++stats_.flows_started;
  ++active_count_;

  if (cls.pinned) {
    // Unresponsive flow: its rate is fixed now and forever; only the
    // fair-share population renegotiates around it.
    settle(cls, simulator_.now());
    join(slot, 0.0);
    arm(ci);
  } else {
    cls.pending.push_back(slot);
  }
  schedule_renegotiation();
  return FlowId{slot, flow.gen};
}

bool FlowEngine::cancel(FlowId id) {
  if (!active(id)) return false;
  ++stats_.flows_cancelled;
  retire(id.slot, false);
  return true;
}

bool FlowEngine::active(FlowId id) const noexcept {
  return id.valid() && id.slot < flows_.size() && flows_[id.slot].in_use &&
         flows_[id.slot].gen == id.gen;
}

BitsPerSec FlowEngine::rate(FlowId id) const noexcept {
  if (!active(id) || !flows_[id.slot].joined) return 0.0;
  return classes_[flows_[id.slot].cls].rate;
}

Bytes FlowEngine::transferred(FlowId id) const noexcept {
  if (!active(id)) return 0;
  const FlowState& flow = flows_[id.slot];
  return delivered_bytes(flow.spec.bytes, remaining_now(flow));
}

void FlowEngine::on_link_changed(const net::Link* link) {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return;
  links_[it->second].capacity = link->config().bandwidth * kEfficiency;
  mark_dirty(it->second);
  schedule_renegotiation();
}

double FlowEngine::link_utilization(const net::Link* link) const noexcept {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return 0.0;
  const LinkState& state = links_[it->second];
  if (state.capacity <= 0.0) return 0.0;
  double load = state.pinned;
  for (const std::uint32_t ci : state.classes) {
    const ClassState& cls = classes_[ci];
    load += static_cast<double>(cls.heap.size()) * cls.rate;
  }
  return load / state.capacity;
}

double FlowEngine::link_bytes_moved(const net::Link* link) const noexcept {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return 0.0;
  const LinkState& state = links_[it->second];
  double total = state.bytes_moved;
  // Resident classes have settled state only as of their last
  // renegotiation; add what their joined flows have moved since (settle()
  // will credit it later).
  const SimTime now = simulator_.now();
  for (const std::uint32_t ci : state.classes) {
    const ClassState& cls = classes_[ci];
    if (now <= cls.settled_at) continue;
    total += static_cast<double>(cls.heap.size()) * cls.rate *
             to_seconds(now - cls.settled_at) / 8.0;
  }
  return total;
}

void FlowEngine::settle(ClassState& cls, SimTime now) {
  if (now <= cls.settled_at) return;
  const double moved = cls.rate * to_seconds(now - cls.settled_at) / 8.0;
  cls.served += moved;
  cls.settled_at = now;
  // Per-link byte accounting for fair-share traffic. Pinned flows are
  // background load, not transfers — see link_bytes_moved().
  if (!cls.pinned && moved > 0.0 && !cls.heap.empty()) {
    const double credit = moved * static_cast<double>(cls.heap.size());
    for (const std::int32_t li : cls.path) links_[li].bytes_moved += credit;
  }
}

double FlowEngine::remaining_now(const FlowState& flow) const noexcept {
  if (!flow.joined) return static_cast<double>(flow.spec.bytes);
  const ClassState& cls = classes_[flow.cls];
  const double left = std::max(flow.target - cls.served, 0.0);
  const SimTime now = simulator_.now();
  if (now <= cls.settled_at) return left;
  const double moved = cls.rate * to_seconds(now - cls.settled_at) / 8.0;
  return left > moved ? left - moved : 0.0;
}

SimTime FlowEngine::finish_time(const ClassState& cls,
                                double target) const noexcept {
  // The per-flow drain formula, from the class's last settle: whole
  // nanoseconds rounded up, so the flow has fully drained when it fires.
  const double left = std::max(target - cls.served, 0.0);
  const double ns = left * 8.0 / cls.rate * 1e9;
  if (!(ns < static_cast<double>(
            std::numeric_limits<SimTime>::max() / 4))) {
    return kNever;
  }
  return cls.settled_at + static_cast<SimDuration>(ns) + 1;
}

void FlowEngine::mark_dirty(std::int32_t link_index) {
  LinkState& link = links_[link_index];
  if (link.dirty) return;
  link.dirty = true;
  dirty_links_.push_back(link_index);
}

void FlowEngine::schedule_renegotiation() {
  if (reneg_pending_) return;
  reneg_pending_ = true;
  if (simulator_.reschedule(reneg_event_, config_.reneg_quantum)) return;
  reneg_event_ = simulator_.schedule(
      config_.reneg_quantum,
      [this, weak = std::weak_ptr<bool>(alive_)] {
        if (weak.expired()) return;
        renegotiate();
      });
}

void FlowEngine::renegotiate() {
  reneg_pending_ = false;
  if (dirty_links_.empty()) return;
  ++stats_.renegotiations;

  closure_classes_.clear();
  solve_links_.clear();

  // Seed: every dirty link is *absorbed* — its resident classes will be
  // re-rated. (`dirty` doubles as the absorbed marker below.)
  for (const std::int32_t li : dirty_links_) {
    LinkState& link = links_[li];
    if (link.share_index >= 0) continue;
    link.share_index = static_cast<std::int32_t>(solve_links_.size());
    solve_links_.push_back(li);
  }

  std::size_t absorbed_scan = 0;  // solve_links_ entries whose classes joined
  std::size_t class_scan = 0;     // closure classes whose paths were walked
  int round = 0;
  for (;;) {
    // Discovery: classes of newly absorbed links join the closure; links
    // on newly joined classes' paths join the solve as capacity
    // constraints (their own residents stay fixed unless a later round
    // absorbs them).
    for (; absorbed_scan < solve_links_.size(); ++absorbed_scan) {
      const LinkState& link = links_[solve_links_[absorbed_scan]];
      if (!link.dirty) continue;  // constraint-only link, not absorbed
      for (const std::uint32_t ci : link.classes) {
        ClassState& cls = classes_[ci];
        if (cls.in_closure) continue;
        cls.in_closure = true;
        closure_classes_.push_back(ci);
      }
    }
    for (; class_scan < closure_classes_.size(); ++class_scan) {
      const ClassState& cls = classes_[closure_classes_[class_scan]];
      for (const std::int32_t li : cls.path) {
        LinkState& link = links_[li];
        if (link.share_index >= 0) continue;
        link.share_index = static_cast<std::int32_t>(solve_links_.size());
        solve_links_.push_back(li);
      }
    }

    // Solver input: one aggregate flow per closure class over the solve
    // links — n identical flows get n× the weight and n× the cap, and
    // split the result evenly — with pinned traffic and out-of-closure
    // classes folded in as fixed load.
    share_links_.clear();
    for (const std::int32_t li : solve_links_) {
      const LinkState& link = links_[li];
      double fixed = link.pinned;
      for (const std::uint32_t ci : link.classes) {
        const ClassState& cls = classes_[ci];
        if (!cls.in_closure) {
          fixed += static_cast<double>(cls.heap.size()) * cls.rate;
        }
      }
      ShareLink entry;
      entry.capacity = link.capacity - fixed;
      share_links_.push_back(entry);
    }
    share_flows_.clear();
    membership_.clear();
    for (const std::uint32_t ci : closure_classes_) {
      const ClassState& cls = classes_[ci];
      const auto n = static_cast<double>(cls.size());
      ShareFlow entry;
      entry.weight = n * cls.weight_eff;
      entry.cap = n * cls.cap;
      entry.link_begin = static_cast<std::int32_t>(membership_.size());
      entry.link_count = static_cast<std::int32_t>(cls.path.size());
      for (const std::int32_t li : cls.path) {
        membership_.push_back(links_[li].share_index);
      }
      share_flows_.push_back(entry);
    }
    // The per-flow min_rate floor is applied below, after the even split.
    solver_.solve(share_flows_, share_links_, membership_, 0.0);
    ++round;
    if (round >= kMaxRounds) break;

    // Expansion: a constraint-only link whose capacity is now under-used
    // only matters if a resident fixed class was bottlenecked *on that
    // link* — then it can claim the slack and must be re-rated. Absorbing
    // links without such a class would drag the whole network into every
    // solve (the O(F^2) trap).
    bool expanded = false;
    for (std::size_t i = 0; i < solve_links_.size(); ++i) {
      LinkState& link = links_[solve_links_[i]];
      if (link.dirty) continue;  // already absorbed
      if (share_links_[i].residual <= kSlackEpsilon) continue;
      bool claimable = false;
      for (const std::uint32_t ci : link.classes) {
        const ClassState& cls = classes_[ci];
        if (!cls.in_closure && cls.bottleneck == solve_links_[i]) {
          claimable = true;
          break;
        }
      }
      if (claimable) {
        // Absorb directly (the discovery cursor already passed this link).
        link.dirty = true;
        for (const std::uint32_t ci : link.classes) {
          ClassState& cls = classes_[ci];
          if (cls.in_closure) continue;
          cls.in_closure = true;
          closure_classes_.push_back(ci);
        }
        expanded = true;
      }
    }
    if (!expanded) break;
  }

  stats_.links_recomputed += static_cast<std::int64_t>(solve_links_.size());
  stats_.classes_recomputed +=
      static_cast<std::int64_t>(closure_classes_.size());

  // Apply after the solve has fully converged: settle each class under its
  // old rate, install the new one, give pending flows their finish
  // targets, and move the class's completion event.
  const SimTime now = simulator_.now();
  for (std::size_t i = 0; i < closure_classes_.size(); ++i) {
    const std::uint32_t ci = closure_classes_[i];
    ClassState& cls = classes_[ci];
    stats_.flows_recomputed += static_cast<std::int64_t>(cls.size());
    settle(cls, now);
    const double rate = std::max(
        share_flows_[i].rate / static_cast<double>(cls.size()), kMinRate);
    const std::int32_t share_bottleneck = share_flows_[i].bottleneck;
    cls.rate = rate;
    cls.bottleneck =
        share_bottleneck >= 0 ? solve_links_[share_bottleneck] : -1;

    if (!cls.pending.empty()) {
      // One-shot slow-start tax, the same for every flow joining the class
      // now: bytes "lost" while the window doubles from the initial window
      // up to its steady value (capped by the receive window or the path
      // rate × RTT product).
      double deficit = 0.0;
      if (config_.model_slow_start) {
        const double steady_window = std::min(
            cls.window > 0 ? static_cast<double>(cls.window) : kInf,
            rate * to_seconds(cls.rtt) / 8.0);
        if (steady_window > kInitialWindow) {
          const double doublings = std::log2(steady_window / kInitialWindow);
          deficit = steady_window * std::max(0.0, doublings - 2.0);
        }
      }
      for (const std::uint32_t slot : cls.pending) {
        join(slot, flows_[slot].spec.bytes < kUnboundedBytes ? deficit : 0.0);
      }
      cls.pending.clear();
    }
    arm(ci);
  }

  for (const std::int32_t li : solve_links_) {
    links_[li].share_index = -1;
    links_[li].dirty = false;
  }
  for (const std::uint32_t ci : closure_classes_) {
    classes_[ci].in_closure = false;
  }
  dirty_links_.clear();
}

void FlowEngine::join(std::uint32_t slot, double deficit) {
  FlowState& flow = flows_[slot];
  ClassState& cls = classes_[flow.cls];
  flow.joined = true;
  flow.target =
      cls.served + static_cast<double>(flow.spec.bytes) + deficit;
  flow.join_seq = next_join_seq_++;
  cls.heap.push_back(slot);
  heap_sift_up(cls, cls.heap.size() - 1);
}

void FlowEngine::arm(std::uint32_t class_index) {
  ClassState& cls = classes_[class_index];
  const SimTime when = cls.heap.empty()
                           ? kNever
                           : finish_time(cls, flows_[cls.heap.front()].target);
  if (when == kNever) {
    simulator_.cancel(cls.completion);
    cls.completion = {};
    return;
  }
  if (simulator_.reschedule_at(cls.completion, when)) return;
  cls.completion = simulator_.schedule_at(
      when, [this, class_index, weak = std::weak_ptr<bool>(alive_)] {
        if (weak.expired()) return;
        on_class_due(class_index);
      });
}

void FlowEngine::on_class_due(std::uint32_t class_index) {
  const SimTime now = simulator_.now();
  // Completion callbacks may start or cancel flows (in this class too) and
  // create classes, so re-index after each one and hold no references.
  for (;;) {
    const ClassState& cls = classes_[class_index];
    if (cls.heap.empty()) break;
    const std::uint32_t slot = cls.heap.front();
    if (finish_time(cls, flows_[slot].target) > now) break;
    complete(slot);
  }
  arm(class_index);
}

void FlowEngine::detach_class(std::uint32_t class_index) {
  ClassState& cls = classes_[class_index];
  simulator_.cancel(cls.completion);
  cls.completion = {};
  if (cls.pinned) return;
  for (std::size_t i = 0; i < cls.path.size(); ++i) {
    const std::int32_t li = cls.path[i];
    LinkState& link = links_[li];
    const auto pos = static_cast<std::size_t>(cls.pos_in_link[i]);
    const std::uint32_t moved = link.classes.back();
    link.classes[pos] = moved;
    link.classes.pop_back();
    cls.pos_in_link[i] = -1;
    if (moved == class_index) continue;
    ClassState& other = classes_[moved];
    for (std::size_t j = 0; j < other.path.size(); ++j) {
      if (other.path[j] == li) {
        other.pos_in_link[j] = static_cast<std::int32_t>(pos);
        break;
      }
    }
  }
}

void FlowEngine::complete(std::uint32_t slot) {
  ++stats_.flows_completed;
  stats_.bytes_completed += flows_[slot].spec.bytes;
  retire(slot, true);
}

void FlowEngine::retire(std::uint32_t slot, bool ok) {
  FlowState& flow = flows_[slot];
  const std::uint32_t ci = flow.cls;
  ClassState& cls = classes_[ci];

  double left = static_cast<double>(flow.spec.bytes);
  bool was_head = false;
  if (flow.joined) {
    // Settle this flow alone: credit the links with what it moved since
    // the class's last settle (all of what was left, on drain), then take
    // it off the class clock.
    const double unsettled = std::max(flow.target - cls.served, 0.0);
    left = ok ? 0.0 : remaining_now(flow);
    if (!cls.pinned && unsettled > left) {
      for (const std::int32_t li : cls.path) {
        links_[li].bytes_moved += unsettled - left;
      }
    }
    was_head = flow.heap_pos == 0;
    heap_erase(cls, flow.heap_pos);
  } else {
    cls.pending.erase(std::find(cls.pending.begin(), cls.pending.end(), slot));
  }
  for (const std::int32_t li : cls.path) {
    LinkState& link = links_[li];
    if (cls.pinned) {
      link.pinned -= flow.spec.pinned_rate * kEfficiency;
      if (link.pinned < 0.0) link.pinned = 0.0;
    }
    mark_dirty(li);
  }
  if (cls.size() == 0) {
    detach_class(ci);
  } else if (was_head && !ok) {
    arm(ci);  // a cancelled head: the next flow's finish is now due first
  }

  FlowDone done;
  done.id = FlowId{slot, flow.gen};
  done.ok = ok;
  done.transferred =
      ok ? flow.spec.bytes : delivered_bytes(flow.spec.bytes, left);
  done.started = flow.started;
  done.finished = simulator_.now();
  done.tag = flow.spec.tag;

  Completion callback = std::move(flow.on_done);
  flow.on_done = {};
  flow.in_use = false;
  flow.joined = false;
  ++flow.gen;
  free_slots_.push_back(slot);
  --active_count_;
  schedule_renegotiation();
  // `flow` may dangle past this point: the callback can start new flows
  // (slot-pool growth) — everything it needs was copied out above.
  if (callback) callback(done);
}

// ------------------------------------------------------------- class heap

bool FlowEngine::finishes_before(std::uint32_t a,
                                 std::uint32_t b) const noexcept {
  const FlowState& fa = flows_[a];
  const FlowState& fb = flows_[b];
  if (fa.target != fb.target) return fa.target < fb.target;
  return fa.join_seq < fb.join_seq;
}

void FlowEngine::heap_place(ClassState& cls, std::size_t pos,
                            std::uint32_t slot) {
  cls.heap[pos] = slot;
  flows_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void FlowEngine::heap_sift_up(ClassState& cls, std::size_t pos) {
  const std::uint32_t slot = cls.heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!finishes_before(slot, cls.heap[parent])) break;
    heap_place(cls, pos, cls.heap[parent]);
    pos = parent;
  }
  heap_place(cls, pos, slot);
}

void FlowEngine::heap_sift_down(ClassState& cls, std::size_t pos) {
  const std::uint32_t slot = cls.heap[pos];
  const std::size_t n = cls.heap.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        finishes_before(cls.heap[child + 1], cls.heap[child])) {
      ++child;
    }
    if (!finishes_before(cls.heap[child], slot)) break;
    heap_place(cls, pos, cls.heap[child]);
    pos = child;
  }
  heap_place(cls, pos, slot);
}

void FlowEngine::heap_erase(ClassState& cls, std::size_t pos) {
  const std::uint32_t last = cls.heap.back();
  cls.heap.pop_back();
  if (pos == cls.heap.size()) return;
  heap_place(cls, pos, last);
  heap_sift_down(cls, pos);
  heap_sift_up(cls, flows_[last].heap_pos);
}

}  // namespace gdmp::flow
