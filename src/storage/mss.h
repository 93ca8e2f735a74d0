// Mass Storage System: the HPSS-class tape store behind each site's disk
// pool (§4.4), reached through an access plug-in.
//
// Files are permanent once archived. Staging a file back to disk occupies
// one of a small pool of tape drives for mount latency + size/bandwidth;
// every request first pays the plug-in's fixed cost, then waits for the
// earliest-free drive, so requests are served in arrival order. GDMP
// triggers stages explicitly because "the MSS is mostly shared with other
// administrative domains" — its internal cache cannot be managed by the
// Grid.
//
// The paper describes two plug-ins: the original *staging script*
// solution and the newer *HRM* API [Bern00] "which provides a common
// interface to be used to access different Mass Storage Systems" and "a
// cleaner interface as compared to the staging script solution". Only
// what tells them apart is modelled: the fixed cost of one request (the
// script path pays a process spawn where HRM pays an RPC) and the name.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/simulator.h"
#include "sim/timer_queue.h"
#include "storage/disk_pool.h"
#include "storage/file_system.h"

namespace gdmp::storage {

struct MssConfig {
  int tape_drives = 2;
  SimDuration mount_latency = 30 * kSecond;
  BitsPerSec tape_bandwidth = 15 * 8 * kMbps;  // 15 MB/s streaming
};

/// The access plug-in between the Storage Manager and the MSS: the fixed
/// cost of one request and the plug-in's name.
struct StagingPlugin {
  SimDuration request_delay;
  const char* name;
};

/// HRM plug-in: direct API calls onto the MSS, one CORBA round trip each.
inline constexpr StagingPlugin kHrmPlugin{5 * kMillisecond, "hrm"};
/// Staging-script plug-in: each request forks an external stager process
/// (the pre-HRM GDMP deployment; noticeably higher per-request cost).
inline constexpr StagingPlugin kScriptStagerPlugin{400 * kMillisecond,
                                                   "script"};

struct MssStats {
  std::int64_t stages = 0;
  std::int64_t archives = 0;
  /// Time stages waited for a drive, counted from the end of the plug-in's
  /// request delay.
  SimDuration total_queue_wait = 0;
  SimDuration total_stage_time = 0;
};

class MassStorageSystem {
 public:
  using StageCallback = std::function<void(Result<FileInfo>)>;
  using ArchiveCallback = std::function<void(Status)>;

  MassStorageSystem(sim::Simulator& simulator, MssConfig config,
                    StagingPlugin plugin);
  /// Fails every in-flight stage/archive completion (kUnavailable): drive
  /// timers are silenced on teardown, so nobody else would fire them.
  ~MassStorageSystem();

  MassStorageSystem(const MassStorageSystem&) = delete;
  MassStorageSystem& operator=(const MassStorageSystem&) = delete;

  /// Archives a file described by `info` (typically from the disk pool).
  /// The disk copy is untouched; the MSS now holds a permanent replica.
  void archive(const FileInfo& info, ArchiveCallback done);

  /// Stages `path` from tape into `pool` (pinned until the callback runs so
  /// the Grid transfer that requested it cannot lose the file mid-flight).
  /// Fails kNotFound at once if not archived, kResourceExhausted if the
  /// pool cannot make room.
  void stage(const std::string& path, DiskPool& pool, StageCallback done);

  bool in_archive(std::string_view path) const noexcept {
    return archive_.exists(path);
  }
  std::size_t archived_count() const noexcept { return archive_.file_count(); }
  const char* plugin_name() const noexcept { return plugin_.name; }

  const MssStats& stats() const noexcept { return stats_; }

 private:
  struct StageJob {
    std::string path;
    DiskPool* pool;
    StageCallback done;
  };

  struct ArchiveJob {
    FileInfo file;
    ArchiveCallback done;
  };

  SimTime take_drive(SimDuration service);

  sim::Simulator& simulator_;
  MssConfig config_;
  StagingPlugin plugin_;
  FileSystem archive_;
  std::vector<SimTime> drive_busy_until_;
  MssStats stats_;
  /// Requests bound to a drive, keyed so the timer closures carry no owning
  /// state and the destructor can fail whatever is still in the plug-in
  /// delay or mounting.
  std::uint64_t next_completion_ = 0;
  std::map<std::uint64_t, StageJob> staging_;
  std::map<std::uint64_t, ArchiveJob> archiving_;
  /// All drive completions share one kernel timer (re-armed in place); the
  /// fat completion closures — paths, FileInfo, result callbacks — stay in
  /// the queue's own storage, off the kernel fast path. The queue's liveness
  /// sentinel also covers MSS teardown with mounts still in flight.
  sim::TimerQueue completions_;
};

}  // namespace gdmp::storage
