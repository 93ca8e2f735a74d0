#include "storage/disk_pool.h"

namespace gdmp::storage {

Result<FileInfo> DiskPool::add_file(std::string path, Bytes size,
                                    std::uint64_t content_seed, SimTime now,
                                    bool pinned) {
  if (size > capacity_) {
    return make_error(ErrorCode::kResourceExhausted,
                      "file larger than pool: " + path);
  }
  const auto existing = fs_.stat(path);
  const Bytes delta = existing.is_ok() ? size - existing->size : size;
  if (delta > free_bytes() && !make_room(delta - free_bytes(), path)) {
    return make_error(ErrorCode::kResourceExhausted,
                      "disk pool full (pinned/reserved): " + path);
  }
  auto result = fs_.create(path, size, content_seed, now, /*replace=*/true);
  if (!result.is_ok()) return result.status();
  if (pinned) {
    (void)fs_.set_pinned(path, true);
    result->pinned = true;
  }
  touch(path);
  if (!existing.is_ok()) notify(path, true);
  return result;
}

Result<FileInfo> DiskPool::lookup(std::string_view path) {
  auto result = fs_.stat(path);
  if (result.is_ok()) {
    ++stats_.hits;
    touch(std::string(path));
  } else {
    ++stats_.misses;
  }
  return result;
}

Result<FileInfo> DiskPool::peek(std::string_view path) const {
  return fs_.stat(path);
}

bool DiskPool::contains(std::string_view path) const noexcept {
  return fs_.exists(path);
}

Status DiskPool::remove(std::string_view path) {
  const Status status = fs_.remove(path);
  if (status.is_ok()) {
    const auto it = lru_pos_.find(std::string(path));
    if (it != lru_pos_.end()) {
      lru_.erase(it->second);
      lru_pos_.erase(it);
    }
    notify(path, false);
  }
  return status;
}

Status DiskPool::pin(std::string_view path) {
  return fs_.set_pinned(path, true);
}

Status DiskPool::unpin(std::string_view path) {
  return fs_.set_pinned(path, false);
}

Status DiskPool::reserve(Bytes bytes) {
  if (bytes < 0) {
    return make_error(ErrorCode::kInvalidArgument, "negative reservation");
  }
  if (bytes > free_bytes() && !make_room(bytes - free_bytes(), "")) {
    return make_error(ErrorCode::kResourceExhausted,
                      "cannot reserve " + std::to_string(bytes) + " bytes");
  }
  reserved_ += bytes;
  return Status::ok();
}

void DiskPool::release_reservation(Bytes bytes) {
  reserved_ -= bytes;
  if (reserved_ < 0) reserved_ = 0;
}

Status DiskPool::set_content(std::string_view path, Bytes size,
                             std::uint64_t content_seed, SimTime now) {
  const auto existing = fs_.stat(path);
  if (!existing.is_ok()) return existing.status();
  const Bytes delta = size - existing->size;
  if (delta > free_bytes() && !make_room(delta - free_bytes(), path)) {
    return make_error(ErrorCode::kResourceExhausted,
                      "no room to grow: " + std::string(path));
  }
  return fs_.set_content(path, size, content_seed, now);
}

bool DiskPool::make_room(Bytes needed, std::string_view keep) {
  // Walk from least-recently-used (back) evicting unpinned files.
  auto it = lru_.rbegin();
  while (needed > 0 && it != lru_.rend()) {
    const std::string& candidate = *it;
    const auto info = fs_.stat(candidate);
    if (!info.is_ok()) {
      // Stale LRU entry; drop it.
      auto dead = std::next(it).base();
      lru_pos_.erase(candidate);
      it = std::make_reverse_iterator(lru_.erase(dead));
      continue;
    }
    if (info->pinned || candidate == keep) {
      ++it;
      continue;
    }
    needed -= info->size;
    ++stats_.evictions;
    stats_.bytes_evicted += info->size;
    (void)fs_.remove(candidate);
    notify(candidate, false);
    auto dead = std::next(it).base();
    lru_pos_.erase(candidate);
    it = std::make_reverse_iterator(lru_.erase(dead));
  }
  return needed <= 0;
}

void DiskPool::touch(const std::string& path) {
  const auto it = lru_pos_.find(path);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  // gdmp-lint: hot-alloc — LRU list is node-based; touch moves or adds one node
  lru_.push_front(path);
  // gdmp-lint: hot-alloc — position index entry created on first touch of a path
  lru_pos_[path] = lru_.begin();
}

void DiskPool::set_metrics(const obs::MetricsScope& scope) {
  scope.expose("hits", &stats_.hits);
  scope.expose("misses", &stats_.misses);
  scope.expose("evictions", &stats_.evictions);
  scope.expose("bytes_evicted", &stats_.bytes_evicted);
  scope.expose_gauge("used_bytes",
                     [this] { return static_cast<double>(used_bytes()); });
  scope.expose_gauge("free_bytes",
                     [this] { return static_cast<double>(free_bytes()); });
}

}  // namespace gdmp::storage
