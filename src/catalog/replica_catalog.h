// Globus Replica Catalog object model (§3.1) on the LDAP store.
//
// Three object types, exactly as the paper describes:
//  * collection — a named group of logical file names ("datasets are
//    normally manipulated as a whole"),
//  * location — maps the collection's logical names to physical replicas
//    at one storage site (URL prefix + logical name),
//  * logical file entry — optional attribute/value metadata per file.
//
// "the heart of the system, a function to return all physical locations of
// a logical file" is lookup().
//
// Every logical file also carries a version stamp: the store's generation
// at the entry's last registration or replica change. Client caches keep
// it beside a cached lookup and revalidate with one integer comparison
// instead of a full re-fetch (DESIGN.md §5j).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalog/filter.h"
#include "catalog/ldap_store.h"
#include "common/result.h"
#include "common/types.h"

namespace gdmp::catalog {

/// Metadata carried on a logical file entry. The paper stores "file size
/// and modify time-stamps"; the content seed and CRC are the simulator's
/// content identity (DESIGN.md §2).
struct LogicalFileAttributes {
  Bytes size = 0;
  SimTime modify_time = 0;
  std::uint64_t content_seed = 0;
  std::uint32_t crc = 0;
  std::map<std::string, std::string> extra;
};

/// Lookup result plus the entry's current version stamp, for client caches.
struct VersionedLocations {
  std::vector<PhysicalFileName> locations;
  std::uint64_t stamp = 0;
};

class ReplicaCatalog {
 public:
  explicit ReplicaCatalog(std::string root_name = "gdmp");

  // -- collections
  Status create_collection(const std::string& collection);
  /// Collection must contain no logical files or locations.
  Status delete_collection(const std::string& collection);
  bool collection_exists(const std::string& collection) const;
  Result<std::vector<std::string>> list_collections() const;

  // -- locations
  Status create_location(const std::string& collection,
                         const std::string& location,
                         const std::string& url_prefix);
  /// Location must hold no replicas.
  Status delete_location(const std::string& collection,
                         const std::string& location);
  Result<std::vector<std::string>> list_locations(
      const std::string& collection) const;

  // -- logical files
  /// Registers a logical file in the collection namespace. Fails
  /// kAlreadyExists if the name is taken (the global-uniqueness guarantee
  /// GDMP's service layer relies on).
  Status register_logical_file(const std::string& collection,
                               const LogicalFileName& lfn,
                               const LogicalFileAttributes& attributes);
  /// The file must have no replicas left.
  Status unregister_logical_file(const std::string& collection,
                                 const LogicalFileName& lfn);
  bool logical_file_exists(const std::string& collection,
                           const LogicalFileName& lfn) const;
  Result<LogicalFileAttributes> attributes(const std::string& collection,
                                           const LogicalFileName& lfn) const;
  Result<std::vector<LogicalFileName>> list_collection(
      const std::string& collection) const;

  // -- replicas
  Status add_replica(const std::string& collection,
                     const std::string& location, const LogicalFileName& lfn);
  Status remove_replica(const std::string& collection,
                        const std::string& location,
                        const LogicalFileName& lfn);
  Result<std::vector<LogicalFileName>> list_location(
      const std::string& collection, const std::string& location) const;

  /// All physical locations of a logical file (url_prefix + "/" + lfn).
  Result<std::vector<PhysicalFileName>> lookup(
      const std::string& collection, const LogicalFileName& lfn) const;

  /// lookup() plus the entry's version stamp (cache insertion).
  Result<VersionedLocations> lookup_versioned(const std::string& collection,
                                              const LogicalFileName& lfn) const;

  /// Current stamp of an entry without materialising its locations — the
  /// cheap revalidation probe. kNotFound if the file is not registered.
  /// Stamps are never 0 and only ever compared for equality.
  Result<std::uint64_t> entry_stamp(const std::string& collection,
                                    const LogicalFileName& lfn) const;

  /// Logical files in a collection whose attributes match `filter`
  /// (attributes exposed: name, size, mtime, crc, seed, plus extras),
  /// sorted by logical file name. DN order is not name order: '/' is
  /// escaped to "%2F", which sorts before '-' and '.'.
  Result<std::vector<std::pair<LogicalFileName, LogicalFileAttributes>>>
  search(const std::string& collection, const Filter& filter) const;

  const LdapStore& store() const noexcept { return store_; }
  std::uint64_t generation() const noexcept { return store_.generation(); }

 private:
  Dn collection_dn(const std::string& collection) const;
  Dn location_dn(const std::string& collection,
                 const std::string& location) const;
  Dn logical_file_dn(const std::string& collection,
                     const LogicalFileName& lfn) const;

  static LogicalFileAttributes attributes_from_entry(const LdapEntry& entry);

  /// Stamps the entry with the store generation its mutation just reached.
  void restamp(const std::string& collection, const LogicalFileName& lfn);

  LdapStore store_;
  Dn root_;
  // (collection, lfn) -> store generation at the entry's last mutation.
  std::map<std::pair<std::string, LogicalFileName>, std::uint64_t> stamps_;
};

/// The catalog's former name, still spelled by perfbench/campaign.cpp;
/// delete it once that file says ReplicaCatalog.
using ShardedCatalog = ReplicaCatalog;

/// DN components cannot contain '/'; logical names like "lfn://x/y" are
/// percent-escaped into RDN values and restored on the way out.
std::string encode_rdn(std::string_view value);
std::string decode_rdn(std::string_view value);

}  // namespace gdmp::catalog
