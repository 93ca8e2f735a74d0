#include "catalog/ldap_store.h"

#include "common/string_util.h"

namespace gdmp::catalog {

bool LdapEntry::has_value(std::string_view attr,
                          std::string_view value) const {
  const auto it = attributes.find(std::string(attr));
  return it != attributes.end() && it->second.contains(std::string(value));
}

std::string LdapEntry::first(std::string_view attr) const {
  const auto it = attributes.find(std::string(attr));
  if (it == attributes.end() || it->second.empty()) return {};
  return *it->second.begin();
}

LdapStore::LdapStore() {
  // Root entry: "" — the directory suffix. All top-level entries hang here.
  LdapEntry root;
  root.dn = "";
  root.attributes["objectclass"].insert("top");
  entries_.emplace("", std::move(root));
  index_add("", "objectclass", "top");
}

void LdapStore::index_add(const Dn& dn, const std::string& attr,
                          const std::string& value) {
  index_[attr][value].insert(dn);
}

void LdapStore::index_remove(const Dn& dn, const std::string& attr,
                             const std::string& value) {
  const auto attr_it = index_.find(attr);
  if (attr_it == index_.end()) return;
  const auto value_it = attr_it->second.find(value);
  if (value_it == attr_it->second.end()) return;
  value_it->second.erase(dn);
  if (value_it->second.empty()) attr_it->second.erase(value_it);
  if (attr_it->second.empty()) index_.erase(attr_it);
}

Dn LdapStore::parent_of(const Dn& dn) {
  const auto slash = dn.rfind('/');
  return slash == std::string::npos ? Dn("") : dn.substr(0, slash);
}

Status LdapStore::add(const Dn& dn,
                      std::map<std::string, std::set<std::string>> attributes) {
  if (dn.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty DN");
  }
  if (entries_.contains(dn)) {
    return make_error(ErrorCode::kAlreadyExists, "entry exists: " + dn);
  }
  const Dn parent = parent_of(dn);
  if (!entries_.contains(parent)) {
    return make_error(ErrorCode::kNotFound, "no parent entry: " + parent);
  }
  LdapEntry entry;
  entry.dn = dn;
  entry.attributes = std::move(attributes);
  const auto it = entries_.emplace(dn, std::move(entry)).first;
  for (const auto& [attr, values] : it->second.attributes) {
    for (const std::string& value : values) index_add(dn, attr, value);
  }
  children_[parent].insert(dn);
  ++generation_;
  return Status::ok();
}

Status LdapStore::remove(const Dn& dn) {
  const auto it = entries_.find(dn);
  if (it == entries_.end()) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  if (const auto kids = children_.find(dn);
      kids != children_.end() && !kids->second.empty()) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "entry has children: " + dn);
  }
  for (const auto& [attr, values] : it->second.attributes) {
    for (const std::string& value : values) index_remove(dn, attr, value);
  }
  children_.erase(dn);
  children_[parent_of(dn)].erase(dn);
  entries_.erase(it);
  ++generation_;
  return Status::ok();
}

Status LdapStore::add_value(const Dn& dn, const std::string& attr,
                            const std::string& value) {
  const auto it = entries_.find(dn);
  if (it == entries_.end()) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  it->second.attributes[attr].insert(value);
  index_add(dn, attr, value);
  ++generation_;
  return Status::ok();
}

Status LdapStore::remove_value(const Dn& dn, const std::string& attr,
                               const std::string& value) {
  const auto it = entries_.find(dn);
  if (it == entries_.end()) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  const auto attr_it = it->second.attributes.find(attr);
  if (attr_it == it->second.attributes.end() ||
      attr_it->second.erase(value) == 0) {
    return make_error(ErrorCode::kNotFound,
                      "no value '" + value + "' for " + attr + " on " + dn);
  }
  if (attr_it->second.empty()) it->second.attributes.erase(attr_it);
  index_remove(dn, attr, value);
  ++generation_;
  return Status::ok();
}

Result<LdapEntry> LdapStore::get(const Dn& dn) const {
  const auto it = entries_.find(dn);
  if (it == entries_.end()) {
    return make_error(ErrorCode::kNotFound, "no such entry: " + dn);
  }
  return it->second;
}

const LdapEntry* LdapStore::find(const Dn& dn) const noexcept {
  const auto it = entries_.find(dn);
  return it == entries_.end() ? nullptr : &it->second;
}

bool LdapStore::exists(const Dn& dn) const noexcept {
  return entries_.contains(dn);
}

Result<std::vector<const LdapEntry*>> LdapStore::search_refs(
    const Dn& base, SearchScope scope, const Filter& filter) const {
  if (!entries_.contains(base)) {
    return make_error(ErrorCode::kNotFound, "no such base: " + base);
  }
  // Any exact-equality conjunct is a necessary condition, so the smallest
  // index bucket bounds the candidate set; candidates then pass through the
  // scope test and the full filter. Buckets are DN-sorted sets, which is
  // exactly the scan's emission order, so index and scan agree byte-for-byte.
  const std::set<Dn>* bucket = nullptr;
  for (const auto& [attr, value] : filter.required_equalities()) {
    const auto attr_it = index_.find(attr);
    if (attr_it == index_.end()) return std::vector<const LdapEntry*>{};
    const auto value_it = attr_it->second.find(value);
    if (value_it == attr_it->second.end()) {
      return std::vector<const LdapEntry*>{};
    }
    if (bucket == nullptr || value_it->second.size() < bucket->size()) {
      bucket = &value_it->second;
    }
  }
  if (bucket == nullptr) return search_scan(base, scope, filter);

  std::vector<const LdapEntry*> out;
  const std::string prefix = base.empty() ? "" : base + "/";
  for (const Dn& dn : *bucket) {
    bool in_scope = false;
    switch (scope) {
      case SearchScope::kBase:
        in_scope = dn == base;
        break;
      case SearchScope::kOneLevel:
        in_scope = dn != base && parent_of(dn) == base && !dn.empty();
        break;
      case SearchScope::kSubtree:
        in_scope = dn == base ||
                   dn.compare(0, prefix.size(), prefix) == 0;
        break;
    }
    if (!in_scope) continue;
    const LdapEntry& entry = entries_.at(dn);
    if (filter.matches(entry.attributes)) out.push_back(&entry);
  }
  return out;
}

Result<std::vector<const LdapEntry*>> LdapStore::search_scan(
    const Dn& base, SearchScope scope, const Filter& filter) const {
  if (!entries_.contains(base)) {
    return make_error(ErrorCode::kNotFound, "no such base: " + base);
  }
  std::vector<const LdapEntry*> out;
  const auto consider = [&](const LdapEntry& entry) {
    if (filter.matches(entry.attributes)) out.push_back(&entry);
  };
  switch (scope) {
    case SearchScope::kBase:
      consider(entries_.at(base));
      break;
    case SearchScope::kOneLevel: {
      const auto kids = children_.find(base);
      if (kids != children_.end()) {
        for (const Dn& child : kids->second) consider(entries_.at(child));
      }
      break;
    }
    case SearchScope::kSubtree: {
      // Entries are DN-ordered; the subtree of `base` is the contiguous
      // range of keys prefixed by "base/" (plus base itself).
      consider(entries_.at(base));
      const std::string prefix = base.empty() ? "" : base + "/";
      for (auto it = entries_.lower_bound(prefix); it != entries_.end();
           ++it) {
        if (!prefix.empty() &&
            it->first.compare(0, prefix.size(), prefix) != 0) {
          break;
        }
        if (prefix.empty() && it->first.empty()) continue;  // root itself
        consider(it->second);
      }
      break;
    }
  }
  return out;
}

}  // namespace gdmp::catalog
