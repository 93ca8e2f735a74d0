#include "objstore/federation.h"

namespace gdmp::objstore {

Status Federation::check_attachable(const std::string& file,
                                    std::uint32_t file_schema) const {
  if (!pool_.contains(file)) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "file not on local disk: " + file);
  }
  if (file_schema > schema_version_) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "schema " + std::to_string(file_schema) +
                          " newer than federation schema " +
                          std::to_string(schema_version_) + ": " + file);
  }
  return Status::ok();
}

Status Federation::attach_range_file(const std::string& file, Tier tier,
                                     std::int64_t event_lo,
                                     std::int64_t event_hi,
                                     std::uint32_t file_schema) {
  if (const Status ok = check_attachable(file, file_schema); !ok.is_ok()) {
    return ok;
  }
  return catalog_.add_range_file(file, tier, event_lo, event_hi, model_);
}

Status Federation::attach_packed_file(const std::string& file,
                                      std::vector<ObjectId> objects,
                                      std::uint32_t file_schema) {
  if (const Status ok = check_attachable(file, file_schema); !ok.is_ok()) {
    return ok;
  }
  return catalog_.add_packed_file(file, std::move(objects), model_);
}

Status Federation::detach(const std::string& file) {
  return catalog_.remove_file(file);
}

// gdmp-lint: hot-path — probed once per object by every replication request
bool Federation::has_local(ObjectId id) const {
  return catalog_.visit_locations(id, [this](const std::string& file, Bytes) {
    return pool_.contains(file);
  });
}

}  // namespace gdmp::objstore
