// Disk I/O timing model.
//
// A single-armed disk serializes requests: each operation pays a seek
// latency plus size/bandwidth. §5.3 of the paper observes that an object
// replication server does *more file-system I/O calls per byte sent* than a
// file replication server; this model is what makes that overhead visible
// in bench_copier_overhead.
#pragma once

#include <cstdint>

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

  Disk(sim::Simulator& simulator, DiskConfig config)
      : simulator_(simulator), config_(config) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Queues a read of `bytes`; `done` fires when the head finishes it.
  void read(Bytes bytes, Done done) { submit(bytes, std::move(done)); }

  /// Queues a write of `bytes`.
  void write(Bytes bytes, Done done) { submit(bytes, std::move(done)); }

  const DiskStats& stats() const noexcept { return stats_; }
  const DiskConfig& config() const noexcept { return config_; }

 private:
  void submit(Bytes bytes, Done done);

  sim::Simulator& simulator_;
  DiskConfig config_;
  DiskStats stats_;
  SimTime busy_until_ = 0;
};

}  // namespace gdmp::storage
