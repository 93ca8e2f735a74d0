#include "gdmp/storage_manager.h"

namespace gdmp::core {

StorageManager::~StorageManager() {
  *alive_ = false;
  auto staging = std::move(staging_);
  for (auto& [path, callbacks] : staging) {
    for (EnsureCallback& callback : callbacks) {
      callback(make_error(ErrorCode::kUnavailable,
                          "storage manager destroyed while staging " + path));
    }
  }
}

void StorageManager::ensure_on_disk(const std::string& path,
                                    EnsureCallback done) {
  auto hit = site_.pool.lookup(path);
  if (hit.is_ok()) {
    ++stats_.disk_hits;
    (void)site_.pool.pin(path);
    done(std::move(hit));
    return;
  }
  if (site_.mss == nullptr || !site_.mss->in_archive(path)) {
    done(make_error(ErrorCode::kNotFound,
                    "not on disk and not archived: " + path));
    return;
  }
  ++stats_.stage_requests;
  auto [it, fresh] = staging_.try_emplace(path);
  it->second.push_back(std::move(done));
  if (!fresh) {
    ++stats_.stages_coalesced;
    return;  // a stage for this file is already in flight
  }
  site_.mss->stage(
      path, site_.pool,
      [this, path, alive = std::weak_ptr<bool>(alive_)](
          Result<storage::FileInfo> result) {
        if (alive.expired()) return;  // waiters already failed by the drain
        auto node = staging_.extract(path);
        if (node.empty()) return;
        for (EnsureCallback& callback : node.mapped()) {
          callback(result);
        }
      });
}

void StorageManager::archive(const std::string& path, ArchiveCallback done) {
  if (site_.mss == nullptr) {
    done(Status::ok());  // disk-only site: the pool copy is the copy
    return;
  }
  auto info = site_.pool.peek(path);
  if (!info.is_ok()) {
    done(info.status());
    return;
  }
  ++stats_.archives;
  site_.mss->archive(*info, std::move(done));
}

}  // namespace gdmp::core
