// Global object-location view (§5.2).
//
// "A global view of which objects exist where is maintained in a set of
// index files" — each site publishes a compact snapshot of its
// object-to-file catalog (range files serialize as intervals, packed files
// as explicit id lists); consumer sites pull snapshots over the grid and
// answer collective lookups ("each application run specifies up front
// exactly which set of objects are needed ... found in one single
// collective lookup operation").
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

class GlobalObjectIndex {
 public:
  /// Installs/replaces one site's snapshot.
  void update_site(const std::string& site, IndexSnapshot snapshot);
  void forget_site(const std::string& site);

  /// All known holders of one object.
  std::vector<RemoteObject> locate(ObjectId id) const;

  /// Collective lookup: partitions `needed` by source site, greedily
  /// preferring sites that hold the most of the remainder. Objects nobody
  /// holds are returned under the empty site name.
  std::map<std::string, std::vector<ObjectId>> plan(
      const std::vector<ObjectId>& needed) const;

  std::uint64_t site_generation(const std::string& site) const;
  std::size_t site_count() const noexcept { return sites_.size(); }

 private:
  /// One range entry in its tier's interval index.
  struct RangeSlot {
    std::int64_t event_lo;
    std::size_t entry;  // into snapshot.ranges
  };

  struct SiteIndex {
    IndexSnapshot snapshot;
    // Per-tier interval index over the range entries, sorted by first
    // event with equal starts in snapshot order.
    std::array<std::vector<RangeSlot>, 4> tier_ranges;
    std::map<ObjectId, std::vector<std::size_t>> packed_index;
  };

  /// Calls `visit(range entry)` for each range entry of `index` holding
  /// `id`, latest start first, until it returns true.
  template <class Visit>
  static bool visit_ranges(const SiteIndex& index, ObjectId id,
                           Visit&& visit);
  static bool site_has(const SiteIndex& index, ObjectId id);

  std::map<std::string, SiteIndex> sites_;
};

}  // namespace gdmp::objrep
