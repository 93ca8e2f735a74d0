#include "sched/replication_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "gdmp/replica_selection.h"

namespace gdmp::sched {

ReplicationScheduler::ReplicationScheduler(core::GdmpServer& server,
                                           SchedulerConfig config)
    : server_(server),
      config_(config),
      rng_(config.seed ^ std::hash<std::string>{}(server.site().site_name)) {
  if (config_.max_concurrent < 1) config_.max_concurrent = 1;
  if (config_.max_per_source < 1) config_.max_per_source = 1;
  if (config_.max_attempts < 1) config_.max_attempts = 1;

  // Attach to the server: the transfer channel's summaries feed the
  // bandwidth history (successes only — failures are scored by
  // record_failure() on the attempt path), and notification
  // auto-replication queues here.
  std::weak_ptr<bool> alive = alive_;
  obs::TransferChannel::Observer observer;
  observer.on_complete = [this, alive](const obs::TransferSummary& summary) {
    if (alive.expired()) return;
    if (summary.ok) selector_.record_mbps(summary.peer, summary.mbps);
  };
  channel_token_ = server_.transfer_channel().subscribe(std::move(observer));
  server_.set_replication_enqueue(
      [this, alive](const core::PublishedFile& file) {
        if (alive.expired()) return;
        submit(file.lfn);
      });
  // The wake sources outside the scheduler: the lookup cache reports each
  // entry it inserts, replaces or drops, the pool each file that appears.
  server_.catalog().set_lookup_observer(
      [this](std::string_view collection, std::string_view lfn) {
        if (collection == server_.config().collection) {
          wake_named(parked_by_lfn_, lfn);
        }
      });
  pool_observer_ = server_.site().pool.add_residency_observer(
      [this](std::string_view path, bool resident) {
        if (resident) wake_named(parked_by_path_, path);
      });
}

ReplicationScheduler::~ReplicationScheduler() {
  *alive_ = false;
  server_.catalog().set_lookup_observer(nullptr);
  server_.site().pool.remove_residency_observer(pool_observer_);
  server_.transfer_channel().unsubscribe(channel_token_);
  server_.set_replication_enqueue(nullptr);
  // Queued and in-flight requests still hold caller completions; fail them
  // all (in-flight transfer callbacks are alive-guarded, so no doubles).
  auto requests = std::move(requests_);
  for (auto& [id, request] : requests) {
    end_request_span(request, "aborted");
    if (request.done) {
      request.done(make_error(ErrorCode::kAborted,
                              "scheduler destroyed: " + request.lfn));
    }
  }
}

void ReplicationScheduler::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("submitted", &stats_.submitted);
  scope.expose("completed", &stats_.completed);
  scope.expose("retries", &stats_.retries);
  scope.expose("dead_lettered", &stats_.dead_lettered);
  scope.expose("cancelled", &stats_.cancelled);
  scope.expose("busy_deferrals", &stats_.busy_deferrals);
  scope.expose("dispatched", &stats_.dispatched);
  scope.expose("bytes_moved", &stats_.bytes_moved);
  scope.expose_gauge("queue_depth",
                     [this] { return static_cast<double>(queue_depth()); });
  scope.expose_gauge("active", [this] { return static_cast<double>(active_); });
}

void ReplicationScheduler::begin_queue_wait(Request& request) {
  // A request submitted while tracing was off has no request span and
  // stays untraced, even after the tracer comes on.
  if (!request.span.valid() || request.queue_span.valid()) return;
  request.queue_span =
      obs::Tracer::global().begin("sched.queue_wait", request.span);
}

void ReplicationScheduler::end_queue_wait(Request& request) {
  if (!request.queue_span.valid()) return;
  obs::Tracer::global().end(request.queue_span);
  request.queue_span = obs::SpanId{};
}

void ReplicationScheduler::end_request_span(Request& request,
                                            const char* outcome) {
  end_queue_wait(request);
  if (!request.span.valid()) return;
  auto& tracer = obs::Tracer::global();
  tracer.attr(request.span, "outcome", outcome);
  tracer.attr(request.span, "attempts",
              static_cast<std::int64_t>(request.attempts));
  tracer.end(request.span);
  request.span = obs::SpanId{};
}

std::uint64_t ReplicationScheduler::submit(LogicalFileName lfn, int priority,
                                           Done done) {
  const std::uint64_t id = next_id_++;
  if (requests_.empty()) {
    // Nothing queued, so no rank is live: restart the order index.
    parked_counts_.clear();
    cursor_ = kBeforeAll;
  }
  Request request;
  request.id = id;
  request.lfn = std::move(lfn);
  request.priority = priority;
  request.seq = parked_counts_.enroll(priority);
  request.local_path = server_.local_path_for(request.lfn);
  request.done = std::move(done);
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Inherits the ambient span (the notify RPC when auto-replication
    // enqueues from a notification handler).
    request.span = tracer.begin("sched.request");
    tracer.attr(request.span, "lfn", request.lfn);
    tracer.attr(request.span, "priority",
                static_cast<std::int64_t>(priority));
  }
  begin_queue_wait(request);
  request.queue = Queue::kReady;
  ready_.insert(key_of(request));
  requests_.emplace(id, std::move(request));
  ++stats_.submitted;
  pump();
  return id;
}

void ReplicationScheduler::submit_batch(
    const std::vector<LogicalFileName>& lfns, int priority, BatchDone done) {
  if (lfns.empty()) {
    if (done) done(Status::ok(), 0);
    return;
  }
  // Prefetch the whole batch's replica locations in one rc.lookup_batch so
  // each dispatch's per-file lookup hits the warm client cache instead of
  // paying its own catalog round trip. The refs variant skips the per-file
  // ReplicaInfo copies — the prefetch only wants the cache warm, not the
  // values. Best-effort: a failed prefetch just means dispatches fall back
  // to individual lookups.
  std::weak_ptr<bool> alive = alive_;
  server_.catalog().lookup_batch_refs(
      server_.config().collection, lfns,
      [this, alive, lfns, priority, done](
          Status, std::vector<Result<const core::ReplicaInfo*>>) mutable {
        if (alive.expired()) {
          if (done) {
            done(make_error(ErrorCode::kAborted, "scheduler stopped"), 0);
          }
          return;
        }
        enqueue_batch(lfns, priority, std::move(done));
      });
}

void ReplicationScheduler::enqueue_batch(
    const std::vector<LogicalFileName>& lfns, int priority, BatchDone done) {
  auto remaining = std::make_shared<std::size_t>(lfns.size());
  auto first_error = std::make_shared<Status>();
  auto bytes = std::make_shared<Bytes>(0);
  for (const LogicalFileName& lfn : lfns) {
    submit(lfn, priority,
           [remaining, first_error, bytes,
            done](Result<gridftp::TransferResult> result) {
             if (result.is_ok()) {
               *bytes += result->bytes;
             } else if (result.code() != ErrorCode::kAlreadyExists &&
                        first_error->is_ok()) {
               *first_error = result.status();
             }
             if (--*remaining == 0 && done) done(*first_error, *bytes);
           });
  }
  // gdmp-lint: dropped-ok — called with non-empty `lfns` (submit_batch returns early on empty); each submit shares `done`
}

bool ReplicationScheduler::cancel(std::uint64_t id) {
  const auto it = requests_.find(id);
  if (it == requests_.end() || it->second.in_flight) return false;
  if (it->second.queue == Queue::kReady) ready_.erase(key_of(it->second));
  if (it->second.queue == Queue::kParked) unpark(it->second);
  // A Queue::kRecheck id stays in recheck_; release() skips it once gone.
  end_request_span(it->second, "cancelled");
  Done done = std::move(it->second.done);
  const LogicalFileName lfn = it->second.lfn;
  requests_.erase(it);
  ++stats_.cancelled;
  if (done) {
    done(make_error(ErrorCode::kAborted, "replication cancelled: " + lfn));
  }
  return true;
}

void ReplicationScheduler::pump() {
  if (pumping_) return;
  pumping_ = true;
  wake_expired();
  while (active_ < config_.max_concurrent) {
    // The walk's next stop in key order: the first request due a re-check,
    // or the first parked request past the cursor that a free slot can
    // serve. Every parked request between the cursor and that stop would
    // be re-checked and refused again, so it is counted instead.
    ReadyKey next = ready_.empty() ? kAfterAll : *ready_.begin();
    bool parked_next = false;
    for (const auto& [host, keys] : parked_by_host_) {
      if (!has_slot(host)) continue;
      const auto it = keys.upper_bound(cursor_);
      if (it != keys.end() && *it < next) {
        next = *it;
        parked_next = true;
      }
    }
    if (cursor_ < next) {
      stats_.busy_deferrals +=
          parked_counts_.through(next.priority, next.seq - 1) -
          parked_counts_.through(cursor_.priority, cursor_.seq);
      cursor_ = next;
    }
    if (next.id == kAfterAll.id) break;  // nothing left to visit
    Request& request = requests_.find(next.id)->second;
    if (parked_next) {
      unpark(request);
    } else {
      ready_.erase(ready_.begin());
      request.queue = Queue::kNone;
    }
    if (every_source_busy(request)) {
      // The refusal replicate() would return synchronously, minus the
      // call: park the request exactly where that bounce would.
      ++stats_.busy_deferrals;
      park(request);
      continue;
    }
    dispatch(request);
  }
  pumping_ = false;
}

// gdmp-lint: hot-path — re-checks each request the walk stops at: first visits, woken parked requests and free-slot candidates
bool ReplicationScheduler::every_source_busy(Request& request) {
  std::uint64_t stamp = 0;
  const core::ReplicaInfo* info = server_.catalog().peek_fresh(
      server_.config().collection, request.lfn, &stamp, &request.fresh_until);
  // A miss or a stale entry needs a catalog round trip first; dispatch and
  // let choose_source decide once the lookup lands.
  if (info == nullptr) return false;
  if (stamp == 0 || stamp != request.hosts_stamp) {
    std::vector<Uri> remote =
        core::remote_candidates(info->locations, server_.site().site_name);
    request.source_hosts.clear();
    for (Uri& uri : remote) request.source_hosts.push_back(std::move(uri.host));
    request.hosts_stamp = stamp;
  }
  // No remote replica is replicate()'s failure to report.
  if (request.source_hosts.empty()) return false;
  for (const std::string& host : request.source_hosts) {
    if (has_slot(host)) return false;
  }
  // A replica already on site completes on dispatch whatever the caps.
  return !server_.site().pool.contains(request.local_path);
}

void ReplicationScheduler::dispatch(Request& request) {
  request.in_flight = true;
  request.busy_bounced = false;
  request.source.clear();
  ++request.attempts;
  ++stats_.dispatched;
  ++active_;
  stats_.peak_active = std::max(stats_.peak_active, active_);
  end_queue_wait(request);

  const std::uint64_t id = request.id;
  const LogicalFileName lfn = request.lfn;
  std::weak_ptr<bool> alive = alive_;

  core::GdmpServer::ReplicateOptions options;
  options.choose_source =
      [this, alive, id](const std::vector<Uri>& candidates)
      -> Result<std::size_t> {
    if (alive.expired()) return std::size_t{0};
    // Best-ranked source whose site is under its in-flight cap.
    for (const std::size_t index : selector_.rank(candidates)) {
      if (has_slot(candidates[index].host)) return index;
    }
    const auto it = requests_.find(id);
    if (it != requests_.end()) it->second.busy_bounced = true;
    ++stats_.busy_deferrals;
    return make_error(ErrorCode::kResourceExhausted,
                      "every source site at its in-flight cap");
  };
  options.on_source = [this, alive, id](const std::string& host) {
    if (alive.expired()) return;
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;
    it->second.source = host;
    // gdmp-lint: hot-alloc — per-source counter created on first dispatch to a host
    ++per_source_[host];
    if (!selector_.measured(host)) selector_.note_probe(host);
  };
  options.parent_span = request.span;

  // NOTE: `request` may be invalidated below — replicate() can complete
  // synchronously (replica already on site).
  server_.replicate(lfn, std::move(options),
                    [this, alive, id](Result<gridftp::TransferResult> result) {
                      if (alive.expired()) return;
                      on_attempt_done(id, std::move(result));
                    });
}

void ReplicationScheduler::on_attempt_done(
    std::uint64_t id, Result<gridftp::TransferResult> result) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;
  Request& request = it->second;
  request.in_flight = false;
  --active_;

  const std::string source = request.source;
  if (!source.empty()) {
    const auto ps = per_source_.find(source);
    if (ps != per_source_.end() && --ps->second <= 0) per_source_.erase(ps);
    request.source.clear();
  }

  if (request.busy_bounced) {
    // Not a failure and not an attempt: park until the next release.
    request.busy_bounced = false;
    --request.attempts;
    begin_queue_wait(request);
    request.queue = Queue::kRecheck;
    recheck_.push_back(id);
    pump();
    return;
  }

  if (result.is_ok() || result.code() == ErrorCode::kAlreadyExists) {
    if (result.is_ok()) {
      stats_.bytes_moved += result->bytes;
      if (!source.empty()) ++stats_.completed_by_source[source];
    }
    ++stats_.completed;
    settle(it, std::move(result));
    return;
  }

  if (!source.empty()) selector_.record_failure(source);

  if (request.attempts >= config_.max_attempts) {
    GDMP_WARN("sched", "dead-lettering ", request.lfn, " after ",
              request.attempts,
              " attempts: ", result.status().to_string());
    // gdmp-lint: hot-alloc — dead-letter path fires only after max_attempts failures
    dead_letters_.push_back(DeadLetter{request.lfn, result.status(),
                                       request.attempts,
                                       simulator().now()});
    ++stats_.dead_lettered;
    settle(it, std::move(result));
    return;
  }

  schedule_retry(request, result.status());
  release();
  pump();
}

void ReplicationScheduler::settle(
    std::map<std::uint64_t, Request>::iterator it,
    Result<gridftp::TransferResult> result) {
  const bool settled_ok =
      result.is_ok() || result.code() == ErrorCode::kAlreadyExists;
  end_request_span(it->second, settled_ok ? "completed" : "dead_lettered");
  Done done = std::move(it->second.done);
  requests_.erase(it);
  release();
  if (done) done(std::move(result));
  pump();
}

void ReplicationScheduler::schedule_retry(Request& request,
                                          const Status& cause) {
  ++stats_.retries;
  const SimDuration delay = backoff_after(request.attempts);
  GDMP_DEBUG("sched", "retrying ", request.lfn, " in ", to_seconds(delay),
             "s after: ", cause.to_string());
  const std::uint64_t id = request.id;
  std::weak_ptr<bool> alive = alive_;
  simulator().schedule(delay, [this, alive, id] {
    if (alive.expired()) return;
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;  // cancelled while backing off
    begin_queue_wait(it->second);
    it->second.queue = Queue::kReady;
    // gdmp-lint: hot-alloc — ready queue is an ordered set; one node per retried request
    ready_.insert(key_of(it->second));
    pump();
  });
}

void ReplicationScheduler::park(Request& request) {
  const ReadyKey key = key_of(request);
  request.queue = Queue::kParked;
  parked_counts_.add(key.priority, key.seq, 1);
  for (const std::string& host : request.source_hosts) {
    auto it = parked_by_host_.find(host);
    if (it == parked_by_host_.end()) {
      // gdmp-lint: hot-alloc — one index per source host, made on its first park
      it = parked_by_host_.emplace(host, std::set<ReadyKey>{}).first;
    }
    // gdmp-lint: hot-alloc — index nodes per park; a counted skip touches none
    it->second.insert(key);
  }
  // gdmp-lint: hot-alloc — index nodes per park; a counted skip touches none
  parked_by_deadline_.emplace(request.fresh_until, key);
  // gdmp-lint: hot-alloc — index nodes per park; a counted skip touches none
  parked_by_lfn_.emplace(request.lfn, request.id);
  // gdmp-lint: hot-alloc — index nodes per park; a counted skip touches none
  parked_by_path_.emplace(request.local_path, request.id);
}

void ReplicationScheduler::unpark(Request& request) {
  const ReadyKey key = key_of(request);
  request.queue = Queue::kNone;
  parked_counts_.add(key.priority, key.seq, -1);
  for (const std::string& host : request.source_hosts) {
    const auto it = parked_by_host_.find(host);
    if (it != parked_by_host_.end()) it->second.erase(key);
  }
  parked_by_deadline_.erase({request.fresh_until, key});
  parked_by_lfn_.erase({request.lfn, request.id});
  parked_by_path_.erase({request.local_path, request.id});
}

void ReplicationScheduler::wake(Request& request) {
  if (request.queue != Queue::kParked) return;
  unpark(request);
  if (cursor_ < key_of(request)) {
    request.queue = Queue::kReady;
    // gdmp-lint: hot-alloc — ready queue is an ordered set; one node per woken request
    ready_.insert(key_of(request));
  } else {
    request.queue = Queue::kRecheck;
    recheck_.push_back(request.id);
  }
}

void ReplicationScheduler::wake_named(const NameIndex& index,
                                      std::string_view name) {
  auto it = index.lower_bound(NameIndex::value_type{name, 0});
  while (it != index.end() && it->first == name) {
    const std::uint64_t id = (it++)->second;  // wake() erases the entry
    wake(requests_.find(id)->second);
  }
}

void ReplicationScheduler::wake_expired() {
  const SimTime now = simulator().now();
  while (!parked_by_deadline_.empty() &&
         parked_by_deadline_.begin()->first < now) {
    wake(requests_.find(parked_by_deadline_.begin()->second.id)->second);
  }
}

void ReplicationScheduler::release() {
  cursor_ = kBeforeAll;
  for (const std::uint64_t id : recheck_) {
    const auto it = requests_.find(id);
    if (it == requests_.end()) continue;  // cancelled
    it->second.queue = Queue::kReady;
    // gdmp-lint: hot-alloc — ready queue is an ordered set; one node per bounced or woken request
    ready_.insert(key_of(it->second));
  }
  recheck_.clear();
}

std::uint64_t ReplicationScheduler::ParkedCounts::enroll(int priority) {
  Tree& tree = levels_[priority];
  if (tree.empty()) tree.push_back(0);
  const std::uint64_t i = tree.size();
  // Node i sums slots (i - lowbit(i), i]; the new slot i is empty.
  const std::uint64_t low = i & (~i + 1);
  tree.push_back(
      static_cast<std::int32_t>(prefix(tree, i - 1) - prefix(tree, i - low)));
  return i;
}

void ReplicationScheduler::ParkedCounts::add(int priority, std::uint64_t seq,
                                             int delta) {
  Tree& tree = levels_.find(priority)->second;
  for (std::uint64_t i = seq; i < tree.size(); i += i & (~i + 1)) {
    tree[i] += delta;
  }
}

std::int64_t ReplicationScheduler::ParkedCounts::through(
    int priority, std::uint64_t seq) const {
  std::int64_t n = 0;
  for (const auto& [level, tree] : levels_) {
    if (level < priority) break;  // levels run from the highest priority
    n += prefix(tree, level == priority ? seq : tree.size() - 1);
  }
  return n;
}

std::int64_t ReplicationScheduler::ParkedCounts::prefix(const Tree& tree,
                                                        std::uint64_t n) {
  std::int64_t sum = 0;
  for (n = std::min<std::uint64_t>(n, tree.size() - 1); n > 0; n &= n - 1) {
    sum += tree[n];
  }
  return sum;
}

SimDuration ReplicationScheduler::backoff_after(int failures) {
  // Each failure doubles the backoff; the capped delay is then scaled by
  // a uniform draw from [1 - kJitter, 1 + kJitter].
  constexpr double kBackoffMultiplier = 2.0;
  constexpr double kJitter = 0.25;
  const double exponent = failures > 1 ? failures - 1 : 0;
  double delay = static_cast<double>(config_.initial_backoff) *
                 std::pow(kBackoffMultiplier, exponent);
  delay = std::min(delay, static_cast<double>(config_.max_backoff));
  delay *= rng_.uniform(1.0 - kJitter, 1.0 + kJitter);
  return std::max<SimDuration>(kMillisecond,
                               static_cast<SimDuration>(delay));
}

}  // namespace gdmp::sched
