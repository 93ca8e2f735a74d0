// Tests for the LDAP store, filters, and the replica catalog object model.
#include <gtest/gtest.h>

#include "catalog/filter.h"
#include "catalog/ldap_store.h"
#include "catalog/replica_catalog.h"

namespace gdmp::catalog {
namespace {

TEST(Filter, EmptyMatchesAll) {
  auto filter = Filter::parse("");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({}));
}

TEST(Filter, EqualityAndWildcards) {
  auto filter = Filter::parse("(name=run*.db)");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({{"name", {"run42.db"}}}));
  EXPECT_FALSE(filter->matches({{"name", {"x.db"}}}));
  EXPECT_FALSE(filter->matches({{"other", {"run42.db"}}}));
}

TEST(Filter, PresenceOperator) {
  auto filter = Filter::parse("(crc=*)");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({{"crc", {"123"}}}));
  EXPECT_FALSE(filter->matches({{"size", {"5"}}}));
}

TEST(Filter, NumericComparisons) {
  auto filter = Filter::parse("(&(size>=1000)(size<=2000))");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({{"size", {"1500"}}}));
  EXPECT_FALSE(filter->matches({{"size", {"999"}}}));
  EXPECT_FALSE(filter->matches({{"size", {"2001"}}}));
}

TEST(Filter, BooleanComposition) {
  auto filter =
      Filter::parse("(|(&(tier=aod)(size>=100))(!(objectclass=location)))");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({{"tier", {"aod"}}, {"size", {"200"}}}));
  EXPECT_TRUE(filter->matches({{"objectclass", {"collection"}}}));
  EXPECT_FALSE(filter->matches(
      {{"objectclass", {"location"}}, {"tier", {"esd"}}, {"size", {"1"}}}));
}

TEST(Filter, MultiValuedAttributeMatchesAnyValue) {
  auto filter = Filter::parse("(filename=f2)");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter->matches({{"filename", {"f1", "f2", "f3"}}}));
}

TEST(Filter, ParseErrors) {
  EXPECT_FALSE(Filter::parse("(name=x").is_ok());
  EXPECT_FALSE(Filter::parse("name=x)").is_ok());
  EXPECT_FALSE(Filter::parse("(&)").is_ok());
  EXPECT_FALSE(Filter::parse("(!(a=1)(b=2))").is_ok());
  EXPECT_FALSE(Filter::parse("(noop)").is_ok());
  EXPECT_FALSE(Filter::parse("(a=1)trailing").is_ok());
}

TEST(Filter, ToStringRoundTrips) {
  auto filter = Filter::parse("(&(a=1)(|(b=2)(c>=3)))");
  ASSERT_TRUE(filter.is_ok());
  auto reparsed = Filter::parse(filter->to_string());
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_TRUE(reparsed->matches({{"a", {"1"}}, {"b", {"2"}}}));
  EXPECT_FALSE(reparsed->matches({{"a", {"0"}}, {"b", {"2"}}}));
}

TEST(LdapStore, AddRequiresParent) {
  LdapStore store;
  EXPECT_TRUE(store.add("o=grid", {}).is_ok());
  EXPECT_TRUE(store.add("o=grid/ou=cern", {}).is_ok());
  EXPECT_EQ(store.add("o=grid/ou=anl/cn=x", {}).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store.add("o=grid", {}).code(), ErrorCode::kAlreadyExists);
}

TEST(LdapStore, RemoveOnlyLeaves) {
  LdapStore store;
  (void)store.add("a", {});
  (void)store.add("a/b", {});
  EXPECT_EQ(store.remove("a").code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.remove("a/b").is_ok());
  EXPECT_TRUE(store.remove("a").is_ok());
}

TEST(LdapStore, AttributeValueOperations) {
  LdapStore store;
  (void)store.add("x", {});
  ASSERT_TRUE(store.add_value("x", "filename", "f1").is_ok());
  ASSERT_TRUE(store.add_value("x", "filename", "f2").is_ok());
  auto entry = store.get("x");
  ASSERT_TRUE(entry.is_ok());
  EXPECT_TRUE(entry->has_value("filename", "f1"));
  EXPECT_TRUE(store.remove_value("x", "filename", "f1").is_ok());
  EXPECT_EQ(store.remove_value("x", "filename", "f1").code(),
            ErrorCode::kNotFound);
  entry = store.get("x");
  EXPECT_FALSE(entry->has_value("filename", "f1"));
  EXPECT_TRUE(entry->has_value("filename", "f2"));
}

TEST(LdapStore, SearchScopes) {
  LdapStore store;
  (void)store.add("root", {{"objectclass", {"top"}}});
  (void)store.add("root/a", {{"objectclass", {"leaf"}}});
  (void)store.add("root/b", {{"objectclass", {"leaf"}}});
  (void)store.add("root/a/c", {{"objectclass", {"leaf"}}});

  const Filter all;
  auto base = store.search_refs("root", SearchScope::kBase, all);
  ASSERT_TRUE(base.is_ok());
  EXPECT_EQ(base->size(), 1u);

  auto one = store.search_refs("root", SearchScope::kOneLevel, all);
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(one->size(), 2u);

  auto sub = store.search_refs("root", SearchScope::kSubtree, all);
  ASSERT_TRUE(sub.is_ok());
  EXPECT_EQ(sub->size(), 4u);

  auto leaves = store.search_refs("root", SearchScope::kSubtree,
                                  Filter::equals("objectclass", "leaf"));
  ASSERT_TRUE(leaves.is_ok());
  EXPECT_EQ(leaves->size(), 3u);
  EXPECT_FALSE(
      store.search_refs("nonexistent", SearchScope::kBase, all).is_ok());
}

std::vector<Dn> dns_of(const Result<std::vector<const LdapEntry*>>& found) {
  std::vector<Dn> out;
  for (const LdapEntry* entry : found.value()) out.push_back(entry->dn);
  return out;
}

TEST(LdapStore, IndexedSearchAgreesWithScan) {
  // A tree whose index buckets differ in size: "kind=leaf" is large,
  // "colour=red" small, "colour=blue" mid-sized, and values repeat across
  // levels and subtrees so scope checks decide membership.
  LdapStore store;
  ASSERT_TRUE(store.add("r", {{"kind", {"root"}}}).is_ok());
  for (int i = 0; i < 12; ++i) {
    const Dn branch = "r/b" + std::to_string(i);
    ASSERT_TRUE(store
                    .add(branch, {{"kind", {"branch"}},
                                  {"colour", {i % 4 == 0 ? "red" : "blue"}},
                                  {"size", {std::to_string(i)}}})
                    .is_ok());
    for (int j = 0; j < i % 5; ++j) {
      ASSERT_TRUE(store
                      .add(branch + "/l" + std::to_string(j),
                           {{"kind", {"leaf"}},
                            {"colour", {j == 0 ? "red" : "blue"}},
                            {"size", {std::to_string(i * 10 + j)}}})
                      .is_ok());
    }
  }
  ASSERT_TRUE(store.add_value("r/b3", "kind", "leaf").is_ok());

  const std::vector<Filter> filters = {
      Filter(),
      Filter::parse("(kind=leaf)").value(),
      Filter::parse("(colour=red)").value(),
      Filter::parse("(&(kind=leaf)(colour=blue))").value(),
      Filter::parse("(&(kind=leaf)(colour=red)(size>=20))").value(),
      Filter::parse("(&(kind=branch)(|(colour=red)(size<=3)))").value(),
      Filter::parse("(&(kind=missing)(colour=red))").value(),
      Filter::parse("(size>=25)").value(),
      Filter::parse("(|(kind=leaf)(colour=red))").value(),
      Filter::parse("(!(colour=blue))").value(),
      Filter::parse("(kind=le*)").value(),
  };
  const std::vector<Dn> bases = {"", "r", "r/b0", "r/b3", "r/b9", "r/b9/l2"};
  const SearchScope scopes[] = {SearchScope::kBase, SearchScope::kOneLevel,
                                SearchScope::kSubtree};
  int nonempty = 0;
  for (const Dn& base : bases) {
    for (const SearchScope scope : scopes) {
      for (const Filter& filter : filters) {
        const auto indexed = dns_of(store.search_refs(base, scope, filter));
        EXPECT_EQ(indexed, dns_of(store.search_scan(base, scope, filter)))
            << "base '" << base << "' scope " << static_cast<int>(scope)
            << " filter " << filter.to_string();
        if (!indexed.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 60);  // the comparisons are not all of empty sets
}

TEST(ReplicaCatalog, RdnEscapingRoundTrips) {
  EXPECT_EQ(decode_rdn(encode_rdn("lfn://cms/run/1")), "lfn://cms/run/1");
  EXPECT_EQ(decode_rdn(encode_rdn("100%/2F weird")), "100%/2F weird");
}

struct CatalogFixture {
  ReplicaCatalog catalog{"test"};

  LogicalFileAttributes attrs(Bytes size = 1000) {
    LogicalFileAttributes a;
    a.size = size;
    a.modify_time = 5;
    a.content_seed = 42;
    a.crc = 0xabcd;
    return a;
  }
};

TEST(ReplicaCatalog, CollectionLifecycle) {
  CatalogFixture f;
  EXPECT_TRUE(f.catalog.create_collection("cms").is_ok());
  EXPECT_EQ(f.catalog.create_collection("cms").code(),
            ErrorCode::kAlreadyExists);
  auto collections = f.catalog.list_collections();
  ASSERT_TRUE(collections.is_ok());
  EXPECT_EQ(*collections, std::vector<std::string>{"cms"});
  EXPECT_TRUE(f.catalog.delete_collection("cms").is_ok());
  EXPECT_FALSE(f.catalog.collection_exists("cms"));
}

TEST(ReplicaCatalog, LookupReturnsAllPhysicalLocations) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern:2811/pool");
  (void)f.catalog.create_location("cms", "anl", "gsiftp://anl:2811/pool");
  ASSERT_TRUE(
      f.catalog.register_logical_file("cms", "lfn://cms/f1", f.attrs())
          .is_ok());
  ASSERT_TRUE(f.catalog.add_replica("cms", "cern", "lfn://cms/f1").is_ok());
  ASSERT_TRUE(f.catalog.add_replica("cms", "anl", "lfn://cms/f1").is_ok());

  auto locations = f.catalog.lookup("cms", "lfn://cms/f1");
  ASSERT_TRUE(locations.is_ok());
  ASSERT_EQ(locations->size(), 2u);
  EXPECT_NE(std::find(locations->begin(), locations->end(),
                      "gsiftp://cern:2811/pool/lfn://cms/f1"),
            locations->end());
}

TEST(ReplicaCatalog, GlobalNameUniqueness) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  ASSERT_TRUE(
      f.catalog.register_logical_file("cms", "lfn://x", f.attrs()).is_ok());
  EXPECT_EQ(f.catalog.register_logical_file("cms", "lfn://x", f.attrs())
                .code(),
            ErrorCode::kAlreadyExists);
}

TEST(ReplicaCatalog, AttributesPreserved) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  LogicalFileAttributes attrs = f.attrs(12345);
  attrs.extra["filetype"] = "objectivity";
  ASSERT_TRUE(
      f.catalog.register_logical_file("cms", "lfn://y", attrs).is_ok());
  auto loaded = f.catalog.attributes("cms", "lfn://y");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded->size, 12345);
  EXPECT_EQ(loaded->content_seed, 42u);
  EXPECT_EQ(loaded->crc, 0xabcdu);
  EXPECT_EQ(loaded->extra.at("filetype"), "objectivity");
}

TEST(ReplicaCatalog, UnregisterRequiresNoReplicas) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern/pool");
  (void)f.catalog.register_logical_file("cms", "lfn://z", f.attrs());
  (void)f.catalog.add_replica("cms", "cern", "lfn://z");
  EXPECT_EQ(f.catalog.unregister_logical_file("cms", "lfn://z").code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(f.catalog.remove_replica("cms", "cern", "lfn://z").is_ok());
  EXPECT_TRUE(f.catalog.unregister_logical_file("cms", "lfn://z").is_ok());
  EXPECT_FALSE(f.catalog.logical_file_exists("cms", "lfn://z"));
}

TEST(ReplicaCatalog, ReplicaRequiresRegisteredLogicalFile) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern/pool");
  EXPECT_EQ(f.catalog.add_replica("cms", "cern", "lfn://ghost").code(),
            ErrorCode::kNotFound);
}

TEST(ReplicaCatalog, DuplicateReplicaRejected) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern/pool");
  (void)f.catalog.register_logical_file("cms", "lfn://d", f.attrs());
  ASSERT_TRUE(f.catalog.add_replica("cms", "cern", "lfn://d").is_ok());
  EXPECT_EQ(f.catalog.add_replica("cms", "cern", "lfn://d").code(),
            ErrorCode::kAlreadyExists);
}

TEST(ReplicaCatalog, SearchByAttributeFilter) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  for (int i = 0; i < 10; ++i) {
    LogicalFileAttributes attrs = f.attrs(1000 * (i + 1));
    attrs.extra["tier"] = i % 2 == 0 ? "aod" : "esd";
    (void)f.catalog.register_logical_file(
        "cms", "lfn://cms/f" + std::to_string(i), attrs);
  }
  auto filter = Filter::parse("(&(tier=aod)(size>=5000))");
  ASSERT_TRUE(filter.is_ok());
  auto matches = f.catalog.search("cms", *filter);
  ASSERT_TRUE(matches.is_ok());
  EXPECT_EQ(matches->size(), 3u);  // sizes 5000,7000,9000 with even index
}

TEST(ReplicaCatalog, ListCollectionAndLocation) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern/pool");
  (void)f.catalog.register_logical_file("cms", "lfn://a", f.attrs());
  (void)f.catalog.register_logical_file("cms", "lfn://b", f.attrs());
  (void)f.catalog.add_replica("cms", "cern", "lfn://a");
  auto collection = f.catalog.list_collection("cms");
  ASSERT_TRUE(collection.is_ok());
  EXPECT_EQ(collection->size(), 2u);
  auto location = f.catalog.list_location("cms", "cern");
  ASSERT_TRUE(location.is_ok());
  EXPECT_EQ(*location, std::vector<LogicalFileName>{"lfn://a"});
}

TEST(ReplicaCatalog, DeleteLocationRequiresEmpty) {
  CatalogFixture f;
  (void)f.catalog.create_collection("cms");
  (void)f.catalog.create_location("cms", "cern", "gsiftp://cern/pool");
  (void)f.catalog.register_logical_file("cms", "lfn://a", f.attrs());
  (void)f.catalog.add_replica("cms", "cern", "lfn://a");
  EXPECT_EQ(f.catalog.delete_location("cms", "cern").code(),
            ErrorCode::kFailedPrecondition);
  (void)f.catalog.remove_replica("cms", "cern", "lfn://a");
  EXPECT_TRUE(f.catalog.delete_location("cms", "cern").is_ok());
}

}  // namespace
}  // namespace gdmp::catalog
