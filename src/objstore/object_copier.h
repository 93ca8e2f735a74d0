// Object copier tool (§2.1, §5.2).
//
// "on the source site, an object copier tool is used to copy the objects
// that need to be replicated into a new file". The copier reads each
// selected object through the site disk (paying per-object seek+read — the
// extra I/O calls and context switches §5.3 attributes to object
// replication servers), charges CPU per object, and emits packed files of
// bounded size so copying can overlap the wide-area transfer
// ("object copying and file transport operations are pipelined").
//
// Each chunk is one lazy disk run (storage/disk.h): the chunk's reads, each
// issued the per-object CPU charge after the previous one completes, and
// one completion event that emits the chunk and starts the next.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "objstore/federation.h"
#include "sim/simulator.h"
#include "storage/disk.h"
#include "storage/file_system.h"

namespace gdmp::objstore {

struct CopierConfig {
  /// Output chunking: each packed file is at most this large, so the first
  /// chunk can start moving over the WAN while later ones are still being
  /// copied.
  Bytes max_output_file = 256 * kMiB;
};

/// Counted per chunk as its run completes.
struct CopierStats {
  std::int64_t objects_copied = 0;
  Bytes bytes_copied = 0;
  std::int64_t io_ops = 0;
  SimDuration cpu_time = 0;
};

struct PackedOutput {
  storage::FileInfo file;
  std::vector<ObjectId> objects;
};

class ObjectCopier {
 public:
  using ChunkCallback = std::function<void(const PackedOutput&)>;
  using DoneCallback = std::function<void(Status)>;

  ObjectCopier(sim::Simulator& simulator, Federation& federation,
               CopierConfig config = {})
      : simulator_(simulator),
        federation_(federation),
        disk_(federation.pool().disk()),
        config_(config) {}
  /// Cancels the pending chunk runs: the reads issued so far stay on the
  /// disk, and no callback fires. Touches only the disk, which may be
  /// tearing down the last run that owns this copier.
  ~ObjectCopier();

  ObjectCopier(const ObjectCopier&) = delete;
  ObjectCopier& operator=(const ObjectCopier&) = delete;

  /// Packs `objects` (which must all be locally available) into files
  /// "<output_prefix>.<k>" in the site pool, invoking `on_chunk` as each
  /// file completes and `done` once at the end. Output files are attached
  /// to the federation as packed files (first-class extraction sources).
  void pack(std::vector<ObjectId> objects, const std::string& output_prefix,
            ChunkCallback on_chunk, DoneCallback done);

  const CopierStats& stats() const noexcept { return stats_; }

 private:
  struct Job;
  /// Packs the job's next chunk as one disk run.
  void start_chunk(const std::shared_ptr<Job>& job);
  void finish_chunk(const std::shared_ptr<Job>& job);
  /// Writes, attaches and hands out the chunk; false once the pool refused
  /// it and the job has ended.
  bool emit_chunk(const std::shared_ptr<Job>& job);

  sim::Simulator& simulator_;
  Federation& federation_;
  storage::Disk& disk_;  // the federation's pool's
  CopierConfig config_;
  CopierStats stats_;
  std::vector<storage::Disk::RunId> runs_;  // one per pack in progress
};

}  // namespace gdmp::objstore
