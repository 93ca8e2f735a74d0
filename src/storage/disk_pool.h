// Disk pool: the site's Grid transfer cache (§4.4).
//
// "a disk pool is considered as a cache" — files live here while being
// produced, transferred, or analysed; the Mass Storage System behind it
// holds the permanent copies. The pool evicts least-recently-used unpinned
// files under pressure and supports explicit space reservation
// (allocate_storage(datasize), the [FRS00] hook the paper names as an easy
// future addition).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/det_hash.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/file_system.h"

namespace gdmp::storage {

struct DiskPoolStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  Bytes bytes_evicted = 0;
};

class DiskPool {
 public:
  /// Told `(path, true)` when add_file creates a path that was not in the
  /// pool, and `(path, false)` when remove() or an eviction takes one out.
  /// Replacing a file, pin/unpin and set_content keep membership and stay
  /// silent, but an eviction that replacing or growing a file triggers is
  /// reported.
  using ResidencyObserver = std::function<void(std::string_view path,
                                               bool resident)>;

  DiskPool(Bytes capacity, Disk& disk) : capacity_(capacity), disk_(disk) {}

  DiskPool(const DiskPool&) = delete;
  DiskPool& operator=(const DiskPool&) = delete;

  /// Adds (or replaces) a file, evicting LRU unpinned files as needed.
  /// Fails with kResourceExhausted when pinned files + reservations leave
  /// no room.
  Result<FileInfo> add_file(std::string path, Bytes size,
                            std::uint64_t content_seed, SimTime now,
                            bool pinned = false);

  /// Cache lookup: counts a hit or miss and refreshes recency on hit.
  Result<FileInfo> lookup(std::string_view path);

  /// stat() without touching recency or hit/miss counters.
  Result<FileInfo> peek(std::string_view path) const;

  bool contains(std::string_view path) const noexcept;

  Status remove(std::string_view path);

  Status pin(std::string_view path);
  Status unpin(std::string_view path);

  /// Reserves `bytes` of pool space ahead of a transfer (evicting as
  /// needed). Release with release_reservation. The §4.4
  /// allocate_storage(datasize) API.
  Status reserve(Bytes bytes);
  void release_reservation(Bytes bytes);

  /// Overwrites content metadata in place (fault injection, appends).
  Status set_content(std::string_view path, Bytes size,
                     std::uint64_t content_seed, SimTime now);

  std::vector<FileInfo> list(std::string_view prefix = "") const {
    return fs_.list(prefix);
  }

  Bytes capacity() const noexcept { return capacity_; }
  Bytes used_bytes() const noexcept { return fs_.total_bytes(); }
  Bytes reserved_bytes() const noexcept { return reserved_; }
  Bytes free_bytes() const noexcept {
    return capacity_ - fs_.total_bytes() - reserved_;
  }
  const DiskPoolStats& stats() const noexcept { return stats_; }
  Disk& disk() noexcept { return disk_; }

  /// Adds a residency observer; observers are told in the order they were
  /// added. Returns a token for remove_residency_observer().
  std::uint64_t add_residency_observer(ResidencyObserver observer) {
    observers_.emplace_back(++last_observer_, std::move(observer));
    return last_observer_;
  }
  void remove_residency_observer(std::uint64_t token) {
    std::erase_if(observers_,
                  [token](const auto& entry) { return entry.first == token; });
  }

  /// Exposes the stats() counters and used/free-byte gauges under `scope`
  /// (e.g. "site.cern.storage.pool"); the gauges read the pool's state.
  void set_metrics(const obs::MetricsScope& scope);

 private:
  /// Evicts LRU unpinned files until at least `needed` bytes are free.
  bool make_room(Bytes needed, std::string_view keep);
  void touch(const std::string& path);
  void notify(std::string_view path, bool resident) {
    for (const auto& [token, observer] : observers_) observer(path, resident);
  }

  Bytes capacity_;
  Disk& disk_;
  FileSystem fs_;
  Bytes reserved_ = 0;
  DiskPoolStats stats_;
  // LRU bookkeeping: most recent at the front.
  std::list<std::string> lru_;
  common::UnorderedMap<std::string, std::list<std::string>::iterator> lru_pos_;  // lookup-only
  std::vector<std::pair<std::uint64_t, ResidencyObserver>> observers_;
  std::uint64_t last_observer_ = 0;
};

}  // namespace gdmp::storage
