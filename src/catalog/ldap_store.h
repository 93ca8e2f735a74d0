// LDAP-style hierarchical directory store.
//
// "The current Globus Replica Catalog implementation uses the LDAP
// protocol to interface with the database backend" (§4.2). This is that
// backend: a directory information tree of entries with multi-valued
// attributes, base/one-level/subtree search with filters, and the usual
// add/modify/delete semantics (parents must exist, only leaves can be
// deleted). The replica catalog object model sits entirely on top.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "catalog/filter.h"

namespace gdmp::catalog {

/// A distinguished name is a '/'-separated path from the root, e.g.
/// "rc=cms/lc=run42/lf=db.17". Each component is an RDN.
using Dn = std::string;

struct LdapEntry {
  Dn dn;
  // Multi-valued attributes, sorted for deterministic output.
  std::map<std::string, std::set<std::string>> attributes;

  bool has_value(std::string_view attr, std::string_view value) const;
  /// First value of an attribute, or "" when absent.
  std::string first(std::string_view attr) const;
};

enum class SearchScope { kBase, kOneLevel, kSubtree };

class LdapStore {
 public:
  LdapStore();

  /// Adds an entry; its parent must exist and the DN must be free.
  Status add(const Dn& dn,
             std::map<std::string, std::set<std::string>> attributes);

  /// Deletes a leaf entry.
  Status remove(const Dn& dn);

  /// Adds a value to a (possibly new) attribute.
  Status add_value(const Dn& dn, const std::string& attr,
                   const std::string& value);

  /// Removes a value; kNotFound if the entry, attribute or value is absent.
  Status remove_value(const Dn& dn, const std::string& attr,
                      const std::string& value);

  Result<LdapEntry> get(const Dn& dn) const;

  /// Borrowed view of one entry, or nullptr when absent. Invalidated by
  /// the next mutation of the store. The catalog layer probes entries on
  /// every add_replica/lookup; copying a location entry (and its whole
  /// replica list) per probe made those paths quadratic in catalog size.
  const LdapEntry* find(const Dn& dn) const noexcept;

  bool exists(const Dn& dn) const noexcept;

  /// LDAP search: borrowed pointers to the entries under `base` within
  /// `scope` matching `filter`, in DN order. When the filter carries an
  /// exact-equality term, candidates come from the inverted attribute index
  /// (smallest bucket); otherwise this is search_scan(). Invalidated by the
  /// next mutation — callers materialise whatever outlives the probe.
  Result<std::vector<const LdapEntry*>> search_refs(const Dn& base,
                                                    SearchScope scope,
                                                    const Filter& filter) const;

  /// search_refs() without the index: a walk of the whole scope. The
  /// index/scan agreement test holds the indexed path to it.
  Result<std::vector<const LdapEntry*>> search_scan(const Dn& base,
                                                    SearchScope scope,
                                                    const Filter& filter) const;

  std::size_t entry_count() const noexcept { return entries_.size(); }

  /// Cheap write-generation counter; the central catalog service uses it
  /// for change polling.
  std::uint64_t generation() const noexcept { return generation_; }

 private:
  static Dn parent_of(const Dn& dn);

  void index_add(const Dn& dn, const std::string& attr,
                 const std::string& value);
  void index_remove(const Dn& dn, const std::string& attr,
                    const std::string& value);

  // Ordered by DN so that a subtree is a contiguous range.
  std::map<Dn, LdapEntry> entries_;
  std::map<Dn, std::set<Dn>> children_;
  // Inverted index: attribute -> value -> DNs carrying that exact value.
  // Maintained by every mutator so search() never falls back to stale data.
  std::map<std::string, std::map<std::string, std::set<Dn>>> index_;
  std::uint64_t generation_ = 0;
};

}  // namespace gdmp::catalog
