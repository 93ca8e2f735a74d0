// Object copier tool (§2.1, §5.2).
//
// "on the source site, an object copier tool is used to copy the objects
// that need to be replicated into a new file". The copier reads each
// selected object through the site disk (paying per-object seek+read — the
// extra I/O calls and context switches §5.3 attributes to object
// replication servers), charges CPU per object, and emits packed files of
// bounded size so copying can overlap the wide-area transfer
// ("object copying and file transport operations are pipelined").
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "objstore/federation.h"
#include "sim/simulator.h"
#include "storage/file_system.h"

namespace gdmp::objstore {

struct CopierConfig {
  /// Output chunking: each packed file is at most this large, so the first
  /// chunk can start moving over the WAN while later ones are still being
  /// copied.
  Bytes max_output_file = 256 * kMiB;
};

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
      : simulator_(simulator), federation_(federation), config_(config) {}

  /// Packs `objects` (which must all be locally available) into files
  /// "<output_prefix>.<k>" in the site pool, invoking `on_chunk` as each
  /// file completes and `done` once at the end. Output files are attached
  /// to the federation as packed files (first-class extraction sources).
  void pack(std::vector<ObjectId> objects, const std::string& output_prefix,
            ChunkCallback on_chunk, DoneCallback done);

  const CopierStats& stats() const noexcept { return stats_; }

 private:
  struct Job;
  void pump(const std::shared_ptr<Job>& job);
  void emit_chunk(const std::shared_ptr<Job>& job);

  sim::Simulator& simulator_;
  Federation& federation_;
  CopierConfig config_;
  CopierStats stats_;
  /// Liveness sentinel for the disk/CPU completion callbacks: a copier can
  /// be destroyed mid-pack (its owner erases the job), and the pending
  /// simulator events must then fall silent instead of touching `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::objstore
