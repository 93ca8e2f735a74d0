// Disk I/O timing model.
//
// A single-armed disk serializes requests: each operation pays a seek
// latency plus size/bandwidth. §5.3 of the paper observes that an object
// replication server does *more file-system I/O calls per byte sent* than a
// file replication server; this model is what makes that overhead visible
// in bench_copier_overhead.
//
// Lazy runs (DESIGN.md "Lazy disk runs"): a caller that issues many small
// reads back to back, each a fixed think time after the previous one
// completes (the object copier), hands the disk the whole sequence as one
// run with one completion callback. The run stays virtual: whenever the
// disk is touched at time t — another request, stats(), a run started or
// cancelled — it first commits exactly the run reads that would have been
// issued by t, across concurrent runs in issue-time order, so the head's
// timeline and DiskStats equal those of the read-by-read caller. The one
// kernel event per run is re-keyed when another request delays the run.
// Tie rule: a run read issued at the same nanosecond as another request is
// committed first (of two runs, the one started first).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace gdmp::storage {

struct DiskConfig {
  BitsPerSec bandwidth = 30 * 8 * kMbps;  // 30 MB/s, year-2001 disk array
  SimDuration seek_latency = 5 * kMillisecond;
};

struct DiskStats {
  std::int64_t operations = 0;
  Bytes bytes_moved = 0;
  SimDuration busy_time = 0;
};

class Disk {
 public:
  /// Completion callback: an inline callable, so per-operation completions
  /// with ordinary captures never heap-allocate on the disk fast path.
  using Done = sim::Callback;
  /// Names a pending run for cancel(); 0 names none.
  using RunId = std::uint64_t;

  Disk(sim::Simulator& simulator, DiskConfig config)
      : simulator_(simulator), config_(config) {}
  /// Cancels the pending runs' events; their callbacks never fire.
  ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Queues a read of `bytes`; `done` fires when the head finishes it.
  void read(Bytes bytes, Done done) { submit(bytes, std::move(done)); }

  /// Queues a write of `bytes`.
  void write(Bytes bytes, Done done) { submit(bytes, std::move(done)); }

  /// Starts a run: one read per entry of `sizes`, in order, the first now
  /// and each later one `think` after the previous read completes. `done`
  /// fires `think` after the last read completes, as the run's only kernel
  /// event. `sizes` must not be empty.
  RunId run(std::vector<Bytes> sizes, SimDuration think, Done done);

  /// Stops a pending run: the reads it has issued by now stay on the disk,
  /// the rest are dropped and `done` never fires. Ids of finished or
  /// cancelled runs are ignored.
  void cancel(RunId run);

  /// The counts as of now, run reads issued by now included.
  const DiskStats& stats() {
    materialise(simulator_.now());
    return stats_;
  }
  const DiskConfig& config() const noexcept { return config_; }

 private:
  /// How far a run has got on one timeline.
  struct Progress {
    std::size_t next = 0;  // first read not yet on the head
    // When read `next` is issued; once every read is on the head, when
    // `done` fires.
    SimTime issue_at = 0;
    SimDuration pending = 0;  // service time of reads next..end
  };
  struct Run {
    RunId id = 0;
    std::vector<Bytes> sizes;
    SimDuration think = 0;
    Progress committed;  // on the head's timeline
    Progress ahead;      // scratch for project(): on the virtual timeline
    SimTime due = 0;     // the time `event` is keyed at
    sim::EventHandle event;
    Done done;
  };

  SimDuration service(Bytes bytes) const noexcept {
    return config_.seek_latency + transmission_delay(bytes, config_.bandwidth);
  }
  void submit(Bytes bytes, Done done);
  /// Puts `bytes` on the head's timeline, issued at `issue_at`; returns
  /// when the head finishes it.
  SimTime commit(Bytes bytes, SimTime issue_at);
  /// The run whose next read on the `progress` timeline is issued first
  /// (of equal times, the earliest started), or null when no run has a
  /// read left there.
  Run* first_issue(Progress Run::*progress);
  /// Commits every run read issued at or before `t`, in issue order.
  void materialise(SimTime t);
  /// Recomputes each run's completion time from the committed state and
  /// re-keys the events that moved.
  void project();
  /// A run's event: commits its last reads and fires its callback.
  void finish(RunId id);

  sim::Simulator& simulator_;
  DiskConfig config_;
  DiskStats stats_;
  SimTime busy_until_ = 0;
  std::vector<Run> runs_;  // pending runs, in start order
  RunId last_run_ = 0;
};

}  // namespace gdmp::storage
