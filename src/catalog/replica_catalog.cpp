#include "catalog/replica_catalog.h"

#include <algorithm>
#include <charconv>

namespace gdmp::catalog {
namespace {

constexpr std::string_view kClassCollection = "collection";
constexpr std::string_view kClassLocation = "location";
constexpr std::string_view kClassLogicalFile = "logicalfile";

std::string to_decimal(std::uint64_t v) { return std::to_string(v); }

std::uint64_t from_decimal(const std::string& s) noexcept {
  std::uint64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

}  // namespace

std::string encode_rdn(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '/') {
      out += "%2F";
    } else if (c == '%') {
      out += "%25";
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_rdn(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '%' && i + 2 < value.size()) {
      if (value.substr(i, 3) == "%2F") {
        out += '/';
        i += 2;
        continue;
      }
      if (value.substr(i, 3) == "%25") {
        out += '%';
        i += 2;
        continue;
      }
    }
    out += value[i];
  }
  return out;
}

ReplicaCatalog::ReplicaCatalog(std::string root_name)
    : root_("rc=" + encode_rdn(root_name)) {
  std::map<std::string, std::set<std::string>> attrs;
  attrs["objectclass"].insert("replicacatalog");
  (void)store_.add(root_, std::move(attrs));
}

Dn ReplicaCatalog::collection_dn(const std::string& collection) const {
  return root_ + "/lc=" + encode_rdn(collection);
}

Dn ReplicaCatalog::location_dn(const std::string& collection,
                               const std::string& location) const {
  return collection_dn(collection) + "/loc=" + encode_rdn(location);
}

Dn ReplicaCatalog::logical_file_dn(const std::string& collection,
                                   const LogicalFileName& lfn) const {
  return collection_dn(collection) + "/lf=" + encode_rdn(lfn);
}

Status ReplicaCatalog::create_collection(const std::string& collection) {
  std::map<std::string, std::set<std::string>> attrs;
  attrs["objectclass"].insert(std::string(kClassCollection));
  attrs["name"].insert(collection);
  return store_.add(collection_dn(collection), std::move(attrs));
}

Status ReplicaCatalog::delete_collection(const std::string& collection) {
  return store_.remove(collection_dn(collection));
}

bool ReplicaCatalog::collection_exists(const std::string& collection) const {
  return store_.exists(collection_dn(collection));
}

Result<std::vector<std::string>> ReplicaCatalog::list_collections() const {
  auto entries = store_.search_refs(root_, SearchScope::kOneLevel,
                                    Filter::equals(
                                        "objectclass",
                                        std::string(kClassCollection)));
  if (!entries.is_ok()) return entries.status();
  std::vector<std::string> out;
  out.reserve(entries->size());
  for (const LdapEntry* entry : *entries) out.push_back(entry->first("name"));
  return out;
}

Status ReplicaCatalog::create_location(const std::string& collection,
                                       const std::string& location,
                                       const std::string& url_prefix) {
  if (!collection_exists(collection)) {
    return make_error(ErrorCode::kNotFound,
                      "no such collection: " + collection);
  }
  std::map<std::string, std::set<std::string>> attrs;
  attrs["objectclass"].insert(std::string(kClassLocation));
  attrs["name"].insert(location);
  attrs["urlprefix"].insert(url_prefix);
  return store_.add(location_dn(collection, location), std::move(attrs));
}

Status ReplicaCatalog::delete_location(const std::string& collection,
                                       const std::string& location) {
  const Dn dn = location_dn(collection, location);
  const LdapEntry* entry = store_.find(dn);
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  if (entry->attributes.contains("filename")) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "location still holds replicas: " + location);
  }
  return store_.remove(dn);
}

Result<std::vector<std::string>> ReplicaCatalog::list_locations(
    const std::string& collection) const {
  // Borrowed refs: a location entry carries its whole replica list, which
  // the per-publish "does the location exist yet?" probe must not copy.
  auto entries = store_.search_refs(
      collection_dn(collection), SearchScope::kOneLevel,
      Filter::equals("objectclass", std::string(kClassLocation)));
  if (!entries.is_ok()) return entries.status();
  std::vector<std::string> out;
  out.reserve(entries->size());
  for (const LdapEntry* entry : *entries) out.push_back(entry->first("name"));
  return out;
}

Status ReplicaCatalog::register_logical_file(
    const std::string& collection, const LogicalFileName& lfn,
    const LogicalFileAttributes& attributes) {
  if (!collection_exists(collection)) {
    return make_error(ErrorCode::kNotFound,
                      "no such collection: " + collection);
  }
  std::map<std::string, std::set<std::string>> attrs;
  attrs["objectclass"].insert(std::string(kClassLogicalFile));
  attrs["name"].insert(lfn);
  attrs["size"].insert(std::to_string(attributes.size));
  attrs["mtime"].insert(std::to_string(attributes.modify_time));
  attrs["seed"].insert(to_decimal(attributes.content_seed));
  attrs["crc"].insert(to_decimal(attributes.crc));
  for (const auto& [key, value] : attributes.extra) {
    attrs[key].insert(value);
  }
  const Status added = store_.add(logical_file_dn(collection, lfn), attrs);
  if (!added.is_ok()) return added;
  // Collection membership is mirrored on the collection entry, as in the
  // Globus catalog where a collection is "a group of logical file names".
  const Status listed =
      store_.add_value(collection_dn(collection), "filename", lfn);
  if (listed.is_ok()) restamp(collection, lfn);
  return listed;
}

Status ReplicaCatalog::unregister_logical_file(const std::string& collection,
                                               const LogicalFileName& lfn) {
  auto locations = lookup(collection, lfn);
  if (locations.is_ok() && !locations->empty()) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "logical file still has replicas: " + lfn);
  }
  const Status removed = store_.remove(logical_file_dn(collection, lfn));
  if (!removed.is_ok()) return removed;
  stamps_.erase({collection, lfn});
  return store_.remove_value(collection_dn(collection), "filename", lfn);
}

bool ReplicaCatalog::logical_file_exists(const std::string& collection,
                                         const LogicalFileName& lfn) const {
  return store_.exists(logical_file_dn(collection, lfn));
}

LogicalFileAttributes ReplicaCatalog::attributes_from_entry(
    const LdapEntry& entry) {
  LogicalFileAttributes out;
  out.size = static_cast<Bytes>(from_decimal(entry.first("size")));
  out.modify_time = static_cast<SimTime>(from_decimal(entry.first("mtime")));
  out.content_seed = from_decimal(entry.first("seed"));
  out.crc = static_cast<std::uint32_t>(from_decimal(entry.first("crc")));
  for (const auto& [attr, values] : entry.attributes) {
    if (attr == "objectclass" || attr == "name" || attr == "size" ||
        attr == "mtime" || attr == "seed" || attr == "crc") {
      continue;
    }
    if (!values.empty()) out.extra[attr] = *values.begin();
  }
  return out;
}

Result<LogicalFileAttributes> ReplicaCatalog::attributes(
    const std::string& collection, const LogicalFileName& lfn) const {
  const LdapEntry* entry = store_.find(logical_file_dn(collection, lfn));
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "logical file not registered: " + lfn);
  }
  return attributes_from_entry(*entry);
}

Result<std::vector<LogicalFileName>> ReplicaCatalog::list_collection(
    const std::string& collection) const {
  const LdapEntry* entry = store_.find(collection_dn(collection));
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no such collection: " + collection);
  }
  std::vector<LogicalFileName> out;
  const auto it = entry->attributes.find("filename");
  if (it != entry->attributes.end()) {
    out.assign(it->second.begin(), it->second.end());
  }
  return out;
}

Status ReplicaCatalog::add_replica(const std::string& collection,
                                   const std::string& location,
                                   const LogicalFileName& lfn) {
  if (!logical_file_exists(collection, lfn)) {
    return make_error(ErrorCode::kNotFound,
                      "logical file not registered: " + lfn);
  }
  const Dn dn = location_dn(collection, location);
  // Membership probe on a borrowed ref: copying the location entry here
  // (its filename set is the whole replica list) made bulk publish
  // quadratic in catalog size.
  const LdapEntry* entry = store_.find(dn);
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  if (entry->has_value("filename", lfn)) {
    return make_error(ErrorCode::kAlreadyExists,
                      "replica already recorded at " + location + ": " + lfn);
  }
  const Status status = store_.add_value(dn, "filename", lfn);
  if (status.is_ok()) restamp(collection, lfn);
  return status;
}

Status ReplicaCatalog::remove_replica(const std::string& collection,
                                      const std::string& location,
                                      const LogicalFileName& lfn) {
  const Status status = store_.remove_value(location_dn(collection, location),
                                            "filename", lfn);
  if (status.is_ok()) restamp(collection, lfn);
  return status;
}

Result<std::vector<LogicalFileName>> ReplicaCatalog::list_location(
    const std::string& collection, const std::string& location) const {
  const LdapEntry* entry = store_.find(location_dn(collection, location));
  if (entry == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no such entry: " + location_dn(collection, location));
  }
  std::vector<LogicalFileName> out;
  const auto it = entry->attributes.find("filename");
  if (it != entry->attributes.end()) {
    out.assign(it->second.begin(), it->second.end());
  }
  return out;
}

Result<std::vector<PhysicalFileName>> ReplicaCatalog::lookup(
    const std::string& collection, const LogicalFileName& lfn) const {
  if (!logical_file_exists(collection, lfn)) {
    return make_error(ErrorCode::kNotFound,
                      "logical file not registered: " + lfn);
  }
  // Borrowed refs: every lookup visits every location of the collection,
  // and copying each location's full replica list per lookup was the other
  // quadratic hot spot at bulk scale.
  auto locations = store_.search_refs(
      collection_dn(collection), SearchScope::kOneLevel,
      Filter::equals("objectclass", std::string(kClassLocation)));
  if (!locations.is_ok()) return locations.status();
  std::vector<PhysicalFileName> out;
  for (const LdapEntry* entry : *locations) {
    if (entry->has_value("filename", lfn)) {
      out.push_back(entry->first("urlprefix") + "/" + lfn);
    }
  }
  return out;
}

Result<std::vector<std::pair<LogicalFileName, LogicalFileAttributes>>>
ReplicaCatalog::search(const std::string& collection,
                       const Filter& filter) const {
  // The combined filter hands the store both equality conjuncts, so its
  // inverted index can pick the narrower bucket (a selective user term
  // usually beats the objectclass bucket by orders of magnitude).
  Filter combined = Filter::all_of(
      Filter::equals("objectclass", std::string(kClassLogicalFile)), filter);
  auto entries = store_.search_refs(collection_dn(collection),
                                    SearchScope::kOneLevel, combined);
  if (!entries.is_ok()) return entries.status();
  std::vector<std::pair<LogicalFileName, LogicalFileAttributes>> out;
  out.reserve(entries->size());
  for (const LdapEntry* entry : *entries) {
    out.emplace_back(entry->first("name"), attributes_from_entry(*entry));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ReplicaCatalog::restamp(const std::string& collection,
                             const LogicalFileName& lfn) {
  stamps_[{collection, lfn}] = store_.generation();
}

Result<VersionedLocations> ReplicaCatalog::lookup_versioned(
    const std::string& collection, const LogicalFileName& lfn) const {
  auto locations = lookup(collection, lfn);
  if (!locations.is_ok()) return locations.status();
  VersionedLocations out;
  out.locations = std::move(*locations);
  const auto it = stamps_.find({collection, lfn});
  out.stamp = it == stamps_.end() ? 0 : it->second;
  return out;
}

Result<std::uint64_t> ReplicaCatalog::entry_stamp(
    const std::string& collection, const LogicalFileName& lfn) const {
  const auto it = stamps_.find({collection, lfn});
  if (it == stamps_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "logical file not registered: " + lfn);
  }
  return it->second;
}

}  // namespace gdmp::catalog
