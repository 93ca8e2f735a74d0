#include "objstore/federation.h"

namespace gdmp::objstore {

Federation::Federation(std::string name, EventModel model,
                       storage::DiskPool& pool)
    : name_(std::move(name)), model_(std::move(model)), pool_(pool) {
  // Attached files register resident (check_attachable) and the pool
  // reports every membership change after that, so each file's bit follows
  // pool_.contains() exactly. Paths the catalog does not know are ignored.
  observer_ = pool_.add_residency_observer([this](std::string_view path,
                                                  bool resident) {
    catalog_.set_resident(path, resident);
  });
}

Federation::~Federation() { pool_.remove_residency_observer(observer_); }

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

namespace {
/// Stops a location walk at the first file on local disk.
constexpr auto kResident = [](const std::string&, Bytes, bool resident) {
  return resident;
};
}  // namespace

// gdmp-lint: hot-path — persistency reads
bool Federation::has_local(ObjectId id) const {
  return catalog_.visit_locations(id, kResident);
}

// gdmp-lint: hot-path — one pass per replication request and per pack job
std::vector<ObjectId> Federation::missing(std::span<const ObjectId> ids) const {
  // The call's one allocation: the result, reserved for the worst case
  // (nothing held) so that it never regrows.
  std::vector<ObjectId> out;
  out.reserve(ids.size());
  ObjectFileCatalog::Cursor cursor;
  // The posting table outgrows the cache; its slots are loaded a few ids
  // ahead of their probes.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i + kAhead < ids.size()) catalog_.prefetch(ids[i + kAhead]);
    if (!catalog_.visit_locations(ids[i], cursor, kResident)) {
      out.push_back(ids[i]);
    }
  }
  return out;
}

}  // namespace gdmp::objstore
