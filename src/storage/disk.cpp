#include "storage/disk.h"

#include <algorithm>

namespace gdmp::storage {

void Disk::submit(Bytes bytes, Done done) {
  const SimTime now = simulator_.now();
  const SimTime start = std::max(busy_until_, now);
  const SimDuration service =
      config_.seek_latency + transmission_delay(bytes, config_.bandwidth);
  busy_until_ = start + service;
  ++stats_.operations;
  stats_.bytes_moved += bytes;
  stats_.busy_time += service;
  simulator_.schedule_at(busy_until_, std::move(done));
}

}  // namespace gdmp::storage
