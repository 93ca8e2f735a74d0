// Objectivity-style federation: the site-local database-file catalog.
//
// "each site is running the Objectivity database management system locally
// that has a catalog of database files internally. However, the local
// ... system does not know about other sites" (§4.1). GDMP's
// post-processing step *attaches* a freshly replicated file here so the
// local persistency layer can open it; the pre-processing step makes sure
// the destination federation exists with a compatible schema.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "objstore/object_file_catalog.h"
#include "storage/disk_pool.h"

namespace gdmp::objstore {

class Federation {
 public:
  /// Registers a residency observer on `pool` until destroyed, so `pool`
  /// must outlive the federation.
  Federation(std::string name, EventModel model, storage::DiskPool& pool);
  ~Federation();

  // The pool's observer points at this object.
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  const std::string& name() const noexcept { return name_; }
  const EventModel& model() const noexcept { return model_; }
  std::uint32_t schema_version() const noexcept { return schema_version_; }

  /// Schema evolution: replicated files carry the schema they were written
  /// with; attaching requires schema_version >= file's version.
  void upgrade_schema(std::uint32_t version) {
    if (version > schema_version_) schema_version_ = version;
  }

  /// Attaches a database file: it must exist in the disk pool and carry a
  /// compatible schema. Registers it as a clustered range file.
  Status attach_range_file(const std::string& file, Tier tier,
                           std::int64_t event_lo, std::int64_t event_hi,
                           std::uint32_t file_schema = 1);

  /// Attaches a packed (copier-output) file with an explicit object list.
  Status attach_packed_file(const std::string& file,
                            std::vector<ObjectId> objects,
                            std::uint32_t file_schema = 1);

  /// Detaches (and forgets) a database file; the pool copy is untouched.
  Status detach(const std::string& file);

  bool is_attached(const std::string& file) const noexcept {
    return catalog_.has_file(file);
  }

  /// True when some attached file holding the object is on local disk.
  /// Answered from the catalog's residency bits, which the pool keeps
  /// current, so the pool is never searched. Allocation-free.
  bool has_local(ObjectId id) const;

  /// The collective "held locally" query behind the already-local filter
  /// of object replication and copier validation: the ids of `ids` that
  /// are not held locally, in input order, duplicates kept. One catalog
  /// cursor serves every id, and one allocation, the result.
  std::vector<ObjectId> missing(std::span<const ObjectId> ids) const;

  const ObjectFileCatalog& catalog() const noexcept { return catalog_; }
  storage::DiskPool& pool() noexcept { return pool_; }
  std::size_t attached_count() const noexcept { return catalog_.file_count(); }

 private:
  Status check_attachable(const std::string& file,
                          std::uint32_t file_schema) const;

  std::string name_;
  EventModel model_;
  storage::DiskPool& pool_;
  ObjectFileCatalog catalog_;
  std::uint32_t schema_version_ = 1;
  std::uint64_t observer_ = 0;  // pool_'s residency observer token
};

}  // namespace gdmp::objstore
