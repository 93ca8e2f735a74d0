// Replication scheduler: queued, prioritized, retrying bulk transfers.
//
// The §4.1 consumer path replicates one file per replicate() call with no
// queueing and no retry. This subsystem sits between the GDMP server and
// the Data Mover and turns that into a managed transfer service (the
// restartable bulk-transfer primitive of [ABB+01]):
//
//   * a priority queue of per-file and whole-collection submissions,
//   * bounded concurrency — a global in-flight cap plus a per-source-site
//     cap, so one producer's uplink is never oversubscribed,
//   * cost-aware source selection from EWMA bandwidth history [VTF01]
//     (see sched/cost_selector.h), with saturated sources skipped in rank
//     order and the request parked when every source is at its cap —
//     decided in place, without a replicate() call, whenever the file's
//     catalog entry is fresh in the site's lookup cache (DESIGN.md §5a),
//   * a parked-request index keyed by queue order and cross-indexed by
//     candidate host, entry expiry and file name, so a freed slot wakes
//     only the parked requests it can serve and the walk past the rest is
//     counted, not repeated (the wake rule, DESIGN.md §5a),
//   * exponential backoff with jitter on failure, and a dead-letter list
//     (surfaced through stats) once max_attempts is exhausted.
//
// Constructing a scheduler attaches it to its server: successful
// transfers feed the bandwidth history, and auto-replication on
// notification enqueues here. The cost selector reaches replicate() only
// through each dispatch's ReplicateOptions::choose_source.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gdmp/server.h"
#include "obs/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/cost_selector.h"

namespace gdmp::sched {

struct SchedulerConfig {
  /// Global in-flight replication cap.
  int max_concurrent = 4;
  /// In-flight cap per source site.
  int max_per_source = 2;
  /// Total dispatch attempts per request before dead-lettering.
  int max_attempts = 4;
  /// Backoff after the n-th failure: initial * 2^(n-1), capped at
  /// max_backoff, then jittered by ±25 % (backoff_after).
  SimDuration initial_backoff = 2 * kSecond;
  SimDuration max_backoff = 300 * kSecond;
  std::uint64_t seed = 0x5c4ed;
};

struct SchedulerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;   // includes already-present replicas
  std::int64_t retries = 0;
  std::int64_t dead_lettered = 0;
  std::int64_t cancelled = 0;
  /// Times a request found every source site at its in-flight cap and was
  /// parked until a slot frees: refusals decided in place from a fresh
  /// catalog entry (each visit of a parked request in queue order, whether
  /// re-checked or counted past by the wake rule) plus those decided after
  /// a catalog round trip.
  std::int64_t busy_deferrals = 0;
  /// GdmpServer::replicate() calls: attempts (successful, failed, already
  /// present) plus the busy refusals decided after a catalog round trip.
  std::int64_t dispatched = 0;
  Bytes bytes_moved = 0;
  /// Most requests in flight at once. A request refused in place is never
  /// in flight; one waiting on a catalog round trip is.
  int peak_active = 0;
  /// Completed transfers per source host (routing breakdown).
  std::map<std::string, std::int64_t> completed_by_source;
};

/// A request that exhausted its attempts.
struct DeadLetter {
  LogicalFileName lfn;
  Status last_error;
  int attempts = 0;
  SimTime failed_at = 0;
};

class ReplicationScheduler {
 public:
  using Done = std::function<void(Result<gridftp::TransferResult>)>;
  using BatchDone = std::function<void(Status, Bytes bytes_moved)>;

  ReplicationScheduler(core::GdmpServer& server, SchedulerConfig config = {});
  ~ReplicationScheduler();

  ReplicationScheduler(const ReplicationScheduler&) = delete;
  ReplicationScheduler& operator=(const ReplicationScheduler&) = delete;

  /// Enqueues one file. Higher priority dispatches first; FIFO within a
  /// priority level. Returns an id usable with cancel(). A replica already
  /// on site completes immediately with kAlreadyExists (not a failure).
  std::uint64_t submit(LogicalFileName lfn, int priority = 0, Done done = {});

  /// Enqueues a whole collection/run. `done` fires once every file has
  /// settled (replicated, already present, or dead-lettered) with the
  /// first real error and the total bytes moved.
  void submit_batch(const std::vector<LogicalFileName>& lfns, int priority,
                    BatchDone done);

  /// Cancels a request that is not currently in flight. Returns false for
  /// unknown or in-flight ids. The request's callback fires with kAborted.
  bool cancel(std::uint64_t id);

  /// Exposes the stats() counters and the queue_depth/active gauges under
  /// `scope` (e.g. "site.cern.sched"); the registry reads them in place.
  void set_metrics(const obs::MetricsScope& scope);

  CostAwareSelector& cost_selector() noexcept { return selector_; }
  const SchedulerConfig& config() const noexcept { return config_; }
  const SchedulerStats& stats() const noexcept { return stats_; }
  const std::vector<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }

  /// Requests waiting for a slot (ready + parked + awaiting backoff).
  std::size_t queue_depth() const noexcept {
    return requests_.size() - static_cast<std::size_t>(active_);
  }
  int active() const noexcept { return active_; }
  int in_flight_to(const std::string& source_host) const {
    const auto it = per_source_.find(source_host);
    return it == per_source_.end() ? 0 : it->second;
  }
  bool idle() const noexcept { return requests_.empty(); }

 private:
  /// Where a queued request waits.
  enum class Queue : std::uint8_t {
    kNone,     // in flight, backing off, or being visited
    kReady,    // in ready_: the next walk past it re-checks it
    kParked,   // in the parked index: refused in place, woken by rule
    kRecheck,  // parked, but re-checked once the next release comes
  };

  struct Request {
    std::uint64_t id = 0;
    LogicalFileName lfn;
    int priority = 0;
    std::uint64_t seq = 0;  // submission rank within its priority level
    int attempts = 0;
    bool in_flight = false;
    bool busy_bounced = false;  // set by the chooser when all sources at cap
    Queue queue = Queue::kNone;
    std::string source;         // current attempt's source host
    std::string local_path;     // where the replica lands on this site
    // every_source_busy()'s memo: the remote candidate hosts of catalog
    // entry version `hosts_stamp` (0 = not derived yet), and the last
    // instant the entry it last read stays fresh.
    std::uint64_t hosts_stamp = 0;
    std::vector<std::string> source_hosts;
    SimTime fresh_until = 0;
    Done done;
    obs::SpanId span;        // "sched.request": submit -> settle
    obs::SpanId queue_span;  // "sched.queue_wait": open while queued
  };

  /// Queue order: higher priority first, then submission order.
  struct ReadyKey {
    int priority;
    std::uint64_t seq;
    std::uint64_t id;
    friend bool operator<(const ReadyKey& a, const ReadyKey& b) noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };
  /// Cursor positions before and after every real key.
  static constexpr ReadyKey kBeforeAll{std::numeric_limits<int>::max(), 0, 0};
  static constexpr ReadyKey kAfterAll{std::numeric_limits<int>::min(),
                                      std::numeric_limits<std::uint64_t>::max(),
                                      0};

  /// Parked requests counted in queue order: per priority level, a Fenwick
  /// tree over the level's submission ranks (Request::seq).
  class ParkedCounts {
   public:
    /// The next rank at `priority`, enrolled as one more (empty) slot.
    std::uint64_t enroll(int priority);
    void add(int priority, std::uint64_t seq, int delta);
    /// Parked requests at or before (priority, seq) in queue order.
    std::int64_t through(int priority, std::uint64_t seq) const;
    void clear() { levels_.clear(); }

   private:
    using Tree = std::vector<std::int32_t>;  // 1-based; slot 0 unused
    static std::int64_t prefix(const Tree& tree, std::uint64_t n);
    std::map<int, Tree, std::greater<>> levels_;
  };

  static ReadyKey key_of(const Request& r) { return {r.priority, r.seq, r.id}; }

  /// (file name, request id) pairs; names are views into the requests.
  using NameIndex =
      std::set<std::pair<std::string_view, std::uint64_t>, std::less<>>;

  sim::Simulator& simulator() noexcept { return server_.site().simulator; }

  /// The enqueue half of submit_batch, run after the prefetch lands.
  void enqueue_batch(const std::vector<LogicalFileName>& lfns, int priority,
                     BatchDone done);

  /// Walks the queue in key order: dispatches what can go, parks what
  /// cannot, and counts the parked requests no wake source has touched.
  void pump();
  /// Opens the request's queue span under its request span, if it has one.
  void begin_queue_wait(Request& request);
  void end_queue_wait(Request& request);
  void end_request_span(Request& request, const char* outcome);
  /// The per-source cap rule of both refusal points: a source site can
  /// take another transfer while it is under max_per_source.
  bool has_slot(const std::string& host) const {
    return in_flight_to(host) < config_.max_per_source;
  }
  /// True when replicate() would refuse `request` synchronously: the file
  /// is not on site, its catalog entry is fresh in the lookup cache, and
  /// every remote candidate host is at its cap. Reads the entry in place
  /// and records its freshness deadline. The walk calls it only where it
  /// stops; parked requests it jumps past are refused without a call.
  bool every_source_busy(Request& request);
  void dispatch(Request& request);
  void on_attempt_done(std::uint64_t id,
                       Result<gridftp::TransferResult> result);
  void settle(std::map<std::uint64_t, Request>::iterator it,
              Result<gridftp::TransferResult> result);
  void schedule_retry(Request& request, const Status& cause);
  SimDuration backoff_after(int failures);

  // The parked index (DESIGN.md §5a, wake rule).
  /// Files a request every_source_busy() just refused under its hosts,
  /// entry expiry and names.
  void park(Request& request);
  void unpark(Request& request);
  /// A wake source touched a parked request: the walk re-checks it when it
  /// next passes it — in this walk if it has not passed it yet, else after
  /// the next release.
  void wake(Request& request);
  /// Wakes the parked requests named `name` in `index`.
  void wake_named(const NameIndex& index, std::string_view name);
  /// Wakes the parked requests whose cache entry has gone stale.
  void wake_expired();
  /// Every parked request is due a visit again: the walk restarts at the
  /// queue head. Runs whenever an attempt settles or fails.
  void release();

  core::GdmpServer& server_;
  SchedulerConfig config_;
  CostAwareSelector selector_;
  Rng rng_;

  std::map<std::uint64_t, Request> requests_;
  std::set<ReadyKey> ready_;
  // The parked index. A parked request stays refused until a slot frees
  // on one of its hosts (found through parked_by_host_ at each walk step),
  // its entry expires (parked_by_deadline_), the cache changes its entry
  // (parked_by_lfn_) or its file lands in the pool (parked_by_path_).
  ParkedCounts parked_counts_;
  std::map<std::string, std::set<ReadyKey>, std::less<>> parked_by_host_;
  std::set<std::pair<SimTime, ReadyKey>> parked_by_deadline_;
  NameIndex parked_by_lfn_;
  NameIndex parked_by_path_;
  std::vector<std::uint64_t> recheck_;  // Queue::kRecheck: ready_ at release
  // The walk's position since the last release: parked keys after it are
  // due a visit, parked keys at or before it were visited and stay parked.
  ReadyKey cursor_ = kBeforeAll;
  std::map<std::string, int> per_source_;
  std::vector<DeadLetter> dead_letters_;
  SchedulerStats stats_;
  obs::TransferChannel::Token channel_token_ = 0;
  std::uint64_t pool_observer_ = 0;
  int active_ = 0;
  std::uint64_t next_id_ = 1;
  bool pumping_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::sched
