// Client-side catalog cache: TTL + version-stamp revalidation.
//
// One instance per Site (owned by gdmp's CatalogClient) caching the
// results of catalog RPCs keyed by (collection, key). Entries carry the
// server-issued version stamp of the underlying catalog entry; within the
// TTL they are served without any RPC, after it they are revalidated with
// a single stamp comparison at the server (DESIGN.md §5j). Local mutations
// (publish / add_replica / remove_replica / unregister) invalidate
// synchronously, so a site never serves its own writes stale; remote
// writes become visible within one TTL — the soft-state consistency model
// of the EU DataGrid catalog design.
//
// The template carries no sim or RPC dependency: time enters as a SimTime
// parameter and the owner decides what a Value is (gdmp caches ReplicaInfo
// for lookups and result vectors for searches).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/det_hash.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace gdmp::catalog {

/// Outcome of a cache probe.
enum class CacheProbe {
  kMiss,   // no entry: full fetch required
  kFresh,  // entry within TTL: serve without any RPC
  kStale,  // entry past TTL: revalidate by stamp before serving
};

template <class Value>
class CatalogCache {
 public:
  struct Config {
    /// Entries younger than this are served without revalidation. A zero
    /// (or negative) TTL disables the cache entirely.
    SimDuration ttl = 0;
    /// Entry cap; the oldest-inserted entry is evicted on overflow.
    std::size_t capacity = 65536;
  };

  struct Stats {
    std::int64_t hits = 0;                  // served fresh, zero RPCs
    std::int64_t misses = 0;                // no entry, full fetch
    std::int64_t stale_probes = 0;          // TTL expired, revalidated
    std::int64_t revalidate_unchanged = 0;  // stamp matched, entry reused
    std::int64_t revalidate_changed = 0;    // stamp moved, entry refetched
    std::int64_t invalidations = 0;         // dropped by local mutation
    std::int64_t evictions = 0;             // dropped by capacity
  };

  explicit CatalogCache(Config config = {}) : config_(config) {}

  // set_metrics hands the registry pointers into stats_.
  CatalogCache(const CatalogCache&) = delete;
  CatalogCache& operator=(const CatalogCache&) = delete;

  bool enabled() const noexcept { return config_.ttl > 0; }
  const Config& config() const noexcept { return config_; }
  const Stats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Exposes the counters to an obs registry so they land in the
  /// Site::metrics() dump; the registry reads stats() in place.
  void set_metrics(const obs::MetricsScope& scope) {
    scope.expose("hits", &stats_.hits);
    scope.expose("misses", &stats_.misses);
    scope.expose("stale_revalidate", &stats_.stale_probes);
    scope.expose("invalidations", &stats_.invalidations);
    scope.expose("evictions", &stats_.evictions);
  }

  /// Probes the cache and accounts the outcome. On kFresh and kStale,
  /// `*value_out` points at the cached value (stable until the next
  /// mutating call) and `*stamp_out` holds its version stamp. The probe is
  /// one seeded-hash find on a reused composite-key buffer: no allocation
  /// and no O(log n) string-compare chain at bulk catalog sizes.
  // gdmp-lint: hot-path — cache probe runs on every catalog lookup
  CacheProbe probe(std::string_view collection, std::string_view key,
                   SimTime now, const Value** value_out,
                   std::uint64_t* stamp_out) {
    if (!enabled()) return CacheProbe::kMiss;
    const auto it = entries_.find(composite(collection, key));
    if (it == entries_.end()) {
      ++stats_.misses;
      return CacheProbe::kMiss;
    }
    *value_out = &it->second.value;
    *stamp_out = it->second.stamp;
    if (now - it->second.fetched_at <= config_.ttl) {
      ++stats_.hits;
      return CacheProbe::kFresh;
    }
    ++stats_.stale_probes;
    return CacheProbe::kStale;
  }

  /// probe() without the accounting. Bulk fast paths peek every key first
  /// and then record one aggregated outcome (note_hits) instead of letting
  /// a partial walk double-count against the retried per-key probes.
  // gdmp-lint: hot-path — zero-copy bulk lookup peeks once per file
  CacheProbe peek(std::string_view collection, std::string_view key,
                  SimTime now, const Value** value_out,
                  std::uint64_t* stamp_out) {
    if (!enabled()) return CacheProbe::kMiss;
    const auto it = entries_.find(composite(collection, key));
    if (it == entries_.end()) return CacheProbe::kMiss;
    *value_out = &it->second.value;
    *stamp_out = it->second.stamp;
    return now - it->second.fetched_at <= config_.ttl ? CacheProbe::kFresh
                                                      : CacheProbe::kStale;
  }

  /// Accounts `n` fresh hits served by a peeking bulk fast path.
  void note_hits(std::int64_t n) { stats_.hits += n; }

  /// Inserts or replaces an entry after a full fetch.
  void insert(const std::string& collection, const std::string& key,
              Value value, std::uint64_t stamp, SimTime now) {
    if (!enabled()) return;
    auto [it, fresh] =
        entries_.try_emplace(std::string(composite(collection, key)));
    if (!fresh) {
      order_.erase(it->second.order);
    } else {
      // gdmp-lint: hot-alloc — side-index upkeep, once per full fetch, never on the fresh-hit path
      by_collection_[std::string(collection)].insert(std::string(key));
    }
    it->second.value = std::move(value);
    it->second.stamp = stamp;
    it->second.fetched_at = now;
    it->second.collection_len = collection.size();
    it->second.order = next_order_++;
    order_.emplace(it->second.order, it);
    while (entries_.size() > config_.capacity) evict_oldest();
  }

  /// Renews a stale entry whose stamp the server confirmed unchanged.
  /// Returns false if the entry vanished (evicted/invalidated mid-flight).
  bool refresh(std::string_view collection, std::string_view key,
               SimTime now) {
    const auto it = entries_.find(composite(collection, key));
    if (it == entries_.end()) return false;
    it->second.fetched_at = now;
    ++stats_.revalidate_unchanged;
    return true;
  }

  /// Accounts a revalidation that came back with new data (the caller
  /// follows up with insert()).
  void note_changed() { ++stats_.revalidate_changed; }

  /// Drops one entry (local mutation of that logical file).
  void invalidate(std::string_view collection, std::string_view key) {
    const auto it = entries_.find(composite(collection, key));
    if (it == entries_.end()) return;
    ++stats_.invalidations;
    erase_entry(it);
  }

  /// Drops every entry of a collection (bulk/local structural mutation).
  void invalidate_collection(std::string_view collection) {
    const auto keys = by_collection_.find(collection);
    if (keys == by_collection_.end()) return;
    for (const std::string& key : keys->second) {
      const auto it = entries_.find(composite(collection, key));
      if (it == entries_.end()) continue;  // unreachable: indexes are in sync
      ++stats_.invalidations;
      order_.erase(it->second.order);
      entries_.erase(it);
    }
    by_collection_.erase(keys);
  }

  void clear() {
    entries_.clear();
    order_.clear();
    by_collection_.clear();
  }

 private:
  struct Entry {
    Value value{};
    std::uint64_t stamp = 0;
    SimTime fetched_at = 0;
    std::uint64_t order = 0;
    // Length of the collection prefix inside the composite map key, so an
    // eviction can split the key back into (collection, key) without a
    // separator convention leaking into user strings.
    std::size_t collection_len = 0;
  };

  struct TransparentSeededHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return common::SeededHash<std::string_view>{}(s);
    }
  };
  struct TransparentEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  // Composite-keyed hash map. Lookup-only (never iterated — eviction goes
  // through order_, collection drops through by_collection_), so seeded
  // hashing keeps it determinism-safe.
  using EntryMap = std::unordered_map<std::string, Entry,
                                      TransparentSeededHash, TransparentEq>;

  /// Builds "collection \x1f key" in the reused probe buffer. The separator
  /// only disambiguates hashing/equality; splitting back uses the stored
  /// collection_len, so user strings containing \x1f stay correct.
  std::string_view composite(std::string_view collection,
                             std::string_view key) {
    probe_buf_.assign(collection);
    // gdmp-lint: hot-alloc — reused member buffer, capacity sticks at the longest key seen
    probe_buf_.push_back('\x1f');
    // gdmp-lint: hot-alloc — reused member buffer, capacity sticks at the longest key seen
    probe_buf_.append(key);
    return probe_buf_;
  }

  void erase_entry(typename EntryMap::iterator it) {
    const std::string_view collection(it->first.data(),
                                      it->second.collection_len);
    const std::string_view key(
        it->first.data() + it->second.collection_len + 1,
        it->first.size() - it->second.collection_len - 1);
    const auto keys = by_collection_.find(collection);
    if (keys != by_collection_.end()) {
      const auto key_it = keys->second.find(key);
      if (key_it != keys->second.end()) keys->second.erase(key_it);
      if (keys->second.empty()) by_collection_.erase(keys);
    }
    order_.erase(it->second.order);
    entries_.erase(it);
  }

  void evict_oldest() {
    const auto oldest = order_.begin();
    ++stats_.evictions;
    erase_entry(oldest->second);
  }

  Config config_;
  Stats stats_;
  EntryMap entries_;
  // Insertion order -> entry, for deterministic FIFO eviction. Hash-map
  // iterators are node-stable, so they survive unrelated mutations.
  std::map<std::uint64_t, typename EntryMap::iterator> order_;
  // collection -> cached keys, for invalidate_collection without iterating
  // the hash map (deterministic drop order, lint-clean).
  std::map<std::string, std::set<std::string, std::less<>>, std::less<>>
      by_collection_;
  std::string probe_buf_;
  std::uint64_t next_order_ = 0;
};

}  // namespace gdmp::catalog
