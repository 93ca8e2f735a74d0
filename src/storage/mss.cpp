#include "storage/mss.h"

#include <algorithm>
#include <cassert>

namespace gdmp::storage {

MassStorageSystem::MassStorageSystem(sim::Simulator& simulator,
                                     MssConfig config, StagingPlugin plugin)
    : simulator_(simulator),
      config_(config),
      plugin_(plugin),
      completions_(simulator) {
  assert(config_.tape_drives > 0);
  drive_busy_until_.assign(static_cast<std::size_t>(config_.tape_drives), 0);
}

MassStorageSystem::~MassStorageSystem() {
  // Fail-all drain: every parked completion fires exactly once even when
  // the site is torn down with a request inside the plug-in delay or a
  // tape mount still in flight.
  auto staging = std::move(staging_);
  for (auto& [id, job] : staging) {
    job.done(make_error(ErrorCode::kUnavailable,
                        "mss destroyed while staging " + job.path));
  }
  auto archiving = std::move(archiving_);
  for (auto& [id, job] : archiving) {
    job.done(make_error(ErrorCode::kUnavailable,
                        "mss destroyed while archiving " + job.file.path));
  }
}

// A request reaches the drives after the plug-in's delay and takes the
// earliest-free one. Every request pays the same delay and drive timelines
// are absolute times, so binding it on arrival gives the drive, start and
// end that binding it after the delay would, in arrival order.
SimTime MassStorageSystem::take_drive(SimDuration service) {
  const auto drive =
      std::min_element(drive_busy_until_.begin(), drive_busy_until_.end());
  const SimTime start =
      std::max(*drive, simulator_.now() + plugin_.request_delay);
  *drive = start + service;
  return start;
}

void MassStorageSystem::archive(const FileInfo& info, ArchiveCallback done) {
  // Archival streams through a drive like staging does.
  const SimDuration service =
      config_.mount_latency +
      transmission_delay(info.size, config_.tape_bandwidth);
  const SimTime end = take_drive(service) + service;
  ++stats_.archives;
  FileInfo copy = info;
  copy.pinned = false;
  const std::uint64_t id = next_completion_++;
  archiving_.emplace(id, ArchiveJob{std::move(copy), std::move(done)});
  // The timer closure holds only the id: teardown fails the parked job and
  // the armed event is silenced by the queue's sentinel.
  // gdmp-lint: owned-callback (closure owned by completions_, a member destroyed with *this)
  completions_.schedule_at(end, [this, id] {
    auto node = archiving_.extract(id);
    if (node.empty()) return;
    ArchiveJob& job = node.mapped();
    auto result = archive_.create(job.file.path, job.file.size,
                                  job.file.content_seed, simulator_.now(),
                                  /*replace=*/true);
    job.done(result.is_ok() ? Status::ok() : result.status());
  });
}

void MassStorageSystem::stage(const std::string& path, DiskPool& pool,
                              StageCallback done) {
  const auto archived = archive_.stat(path);
  if (!archived.is_ok()) {
    done(make_error(ErrorCode::kNotFound, "not archived: " + path));
    return;
  }
  const SimDuration service =
      config_.mount_latency +
      transmission_delay(archived->size, config_.tape_bandwidth);
  const SimTime start = take_drive(service);
  const SimDuration wait = start - (simulator_.now() + plugin_.request_delay);
  ++stats_.stages;
  stats_.total_queue_wait += wait;
  stats_.total_stage_time += wait + service;

  const FileInfo file = *archived;
  const std::uint64_t id = next_completion_++;
  staging_.emplace(id, StageJob{path, &pool, std::move(done)});
  // gdmp-lint: owned-callback (closure owned by completions_, a member destroyed with *this)
  completions_.schedule_at(start + service, [this, id, file] {
    auto node = staging_.extract(id);
    if (node.empty()) return;
    auto result = node.mapped().pool->add_file(file.path, file.size,
                                               file.content_seed,
                                               simulator_.now(),
                                               /*pinned=*/true);
    node.mapped().done(std::move(result));
  });
}

}  // namespace gdmp::storage
