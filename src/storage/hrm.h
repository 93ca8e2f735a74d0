// Hierarchical Resource Manager interface (§4.4, [Bern00]).
//
// GDMP talks to mass storage through plug-ins. The paper describes two:
// the original *staging script* solution and the newer *HRM* API "which
// provides a common interface to be used to access different Mass Storage
// Systems" and "a cleaner interface as compared to the staging script
// solution". Both are one class here, over the same simulated MSS, so
// their overheads can be compared (the script path pays a process-spawn
// latency per request where HRM pays an RPC).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/simulator.h"
#include "sim/timer_queue.h"
#include "storage/mss.h"

namespace gdmp::storage {

/// What tells the two plug-ins apart: the fixed cost of one request and
/// the plug-in's name.
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

/// The staging interface used by the GDMP Storage Manager Service: every
/// stage or archive request waits out the plug-in's request delay, then
/// goes to the MSS.
class StorageBackend {
 public:
  using StageCallback = MassStorageSystem::StageCallback;
  using ArchiveCallback = MassStorageSystem::ArchiveCallback;

  StorageBackend(sim::Simulator& simulator, MassStorageSystem& mss,
                 StagingPlugin plugin)
      : mss_(mss), plugin_(plugin), pending_(simulator) {}

  /// Fails every parked completion (kUnavailable): request-delay timers
  /// are silenced on teardown, so nobody else would fire them.
  ~StorageBackend();

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  void stage_to_disk(const std::string& path, DiskPool& pool,
                     StageCallback done);
  void archive_file(const FileInfo& info, ArchiveCallback done);
  bool in_archive(std::string_view path) const {
    return mss_.in_archive(path);
  }
  const char* name() const noexcept { return plugin_.name; }

 private:
  struct StageJob {
    std::string path;
    DiskPool* pool;
    StageCallback done;
  };
  struct ArchiveJob {
    FileInfo info;
    ArchiveCallback done;
  };

  MassStorageSystem& mss_;
  StagingPlugin plugin_;
  /// Parked requests, keyed so the timer closures carry no owning state and
  /// the destructor can fail whatever is still waiting.
  std::uint64_t next_job_ = 0;
  std::map<std::uint64_t, StageJob> staging_;
  std::map<std::uint64_t, ArchiveJob> archiving_;
  /// All in-flight request-delay completions share one re-armed kernel
  /// timer; the queue's sentinel silences armed events on teardown.
  sim::TimerQueue pending_;
};

}  // namespace gdmp::storage
