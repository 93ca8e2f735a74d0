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
//     order and the request deferred when every source is at its cap —
//     decided in place, without a replicate() call, whenever the file's
//     catalog entry is fresh in the site's lookup cache (DESIGN.md §5a),
//   * exponential backoff with jitter on failure, and a dead-letter list
//     (surfaced through stats) once max_attempts is exhausted.
//
// Constructing a scheduler attaches it to its server: the cost selector
// becomes the default replica selector, successful transfers feed the
// bandwidth history, and auto-replication on notification enqueues here
// instead of firing immediately.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
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
  /// Backoff after the n-th failure: initial * multiplier^(n-1), capped at
  /// max_backoff, then scaled by uniform [1-jitter, 1+jitter].
  SimDuration initial_backoff = 2 * kSecond;
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = 300 * kSecond;
  double jitter = 0.25;
  /// EWMA weight of the newest bandwidth observation (cost selector).
  double selector_smoothing = 0.3;
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
  /// catalog entry plus those decided after a catalog round trip.
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

  /// Requests waiting for a slot (ready + deferred + awaiting backoff).
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
  struct Request {
    std::uint64_t id = 0;
    LogicalFileName lfn;
    int priority = 0;
    std::uint64_t seq = 0;
    int attempts = 0;
    bool in_flight = false;
    bool busy_bounced = false;  // set by the chooser when all sources at cap
    std::string source;         // current attempt's source host
    std::string local_path;     // where the replica lands on this site
    // every_source_busy()'s memo: the remote candidate hosts of catalog
    // entry version `hosts_stamp` (0 = not derived yet).
    std::uint64_t hosts_stamp = 0;
    std::vector<std::string> source_hosts;
    Done done;
    obs::SpanId span;        // "sched.request": submit -> settle
    obs::SpanId queue_span;  // "sched.queue_wait": open while queued
  };

  /// Orders the ready queue: higher priority first, then submission order.
  struct ReadyKey {
    int priority;
    std::uint64_t seq;
    std::uint64_t id;
    friend bool operator<(const ReadyKey& a, const ReadyKey& b) noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };

  sim::Simulator& simulator() noexcept { return server_.site().simulator; }

  /// The enqueue half of submit_batch, run after the prefetch lands.
  void enqueue_batch(const std::vector<LogicalFileName>& lfns, int priority,
                     BatchDone done);

  void pump();
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
  /// every remote candidate host is at its cap. Reads the entry in place.
  bool every_source_busy(Request& request);
  void dispatch(Request& request);
  void on_attempt_done(std::uint64_t id,
                       Result<gridftp::TransferResult> result);
  void settle(std::map<std::uint64_t, Request>::iterator it,
              Result<gridftp::TransferResult> result);
  void schedule_retry(Request& request, const Status& cause);
  void release_deferred();
  SimDuration backoff_after(int failures);

  core::GdmpServer& server_;
  SchedulerConfig config_;
  CostAwareSelector selector_;
  Rng rng_;

  std::map<std::uint64_t, Request> requests_;
  std::set<ReadyKey> ready_;
  std::vector<std::uint64_t> deferred_;  // bounced off per-source caps
  std::map<std::string, int> per_source_;
  std::vector<DeadLetter> dead_letters_;
  SchedulerStats stats_;
  obs::TransferChannel::Token channel_token_ = 0;
  int active_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  bool pumping_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::sched
