// Global object-location view (§5.2).
//
// "A global view of which objects exist where is maintained in a set of
// index files" — each site publishes a compact snapshot of its
// object-to-file catalog (range files serialize as intervals, packed files
// as explicit id lists); consumer sites pull snapshots over the grid, load
// each into an ObjectFileCatalog of its own, and answer collective lookups
// ("each application run specifies up front exactly which set of objects
// are needed ... found in one single collective lookup operation").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "objstore/object_file_catalog.h"
#include "rpc/serialize.h"

namespace gdmp::objrep {

/// A compact, serializable description of one site's object holdings.
struct IndexSnapshot {
  struct RangeEntry {
    std::string file;
    objstore::Tier tier;
    std::int64_t event_lo;
    std::int64_t event_hi;
  };
  struct PackedEntry {
    std::string file;
    std::vector<ObjectId> objects;
  };
  std::uint64_t generation = 0;
  std::vector<RangeEntry> ranges;
  std::vector<PackedEntry> packed;

  /// Serialized size — what replicating this index file costs on the wire.
  Bytes wire_bytes() const;
};

IndexSnapshot snapshot_catalog(const objstore::ObjectFileCatalog& catalog,
                               std::uint64_t generation);
void encode_snapshot(rpc::Writer& w, const IndexSnapshot& snapshot);
IndexSnapshot decode_snapshot(rpc::Reader& r);

/// Where an object can be fetched from.
struct RemoteObject {
  std::string site;
  std::string file;
};

/// One catalog per site, built from its snapshot: locate() and plan() ask
/// the same ObjectFileCatalog lookup that answers local residency.
class GlobalObjectIndex {
 public:
  /// Installs or replaces one site's holdings, registering every snapshot
  /// entry under `model`. The first entry the catalog refuses (a file
  /// named twice, an empty event range, a bad tier) is returned, and the
  /// site keeps its previous holdings.
  Status update_site(const std::string& site, IndexSnapshot snapshot,
                     const objstore::EventModel& model);

  /// All known holders of one object.
  std::vector<RemoteObject> locate(ObjectId id) const;

  /// Collective lookup: partitions `needed` by source site, greedily
  /// preferring sites that hold the most of the remainder. Each site
  /// counts the remainder with one catalog cursor per round. Objects
  /// nobody holds are returned under the empty site name.
  std::map<std::string, std::vector<ObjectId>> plan(
      const std::vector<ObjectId>& needed) const;

  std::size_t site_count() const noexcept { return sites_.size(); }

 private:
  std::map<std::string, objstore::ObjectFileCatalog> sites_;
};

}  // namespace gdmp::objrep
