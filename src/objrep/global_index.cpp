#include "objrep/global_index.h"

#include <algorithm>

namespace gdmp::objrep {

Bytes IndexSnapshot::wire_bytes() const {
  Bytes total = 16;
  for (const RangeEntry& entry : ranges) {
    total += static_cast<Bytes>(entry.file.size()) + 24;
  }
  for (const PackedEntry& entry : packed) {
    total += static_cast<Bytes>(entry.file.size()) +
             static_cast<Bytes>(entry.objects.size()) * 8 + 8;
  }
  return total;
}

IndexSnapshot snapshot_catalog(const objstore::ObjectFileCatalog& catalog,
                               std::uint64_t generation) {
  IndexSnapshot snapshot;
  snapshot.generation = generation;
  catalog.for_each_file(
      [&snapshot](const std::string& file, objstore::Tier tier,
                  std::int64_t event_lo, std::int64_t event_hi) {
        snapshot.ranges.push_back(
            IndexSnapshot::RangeEntry{file, tier, event_lo, event_hi});
      },
      [&snapshot](const std::string& file,
                  const std::vector<ObjectId>& objects) {
        if (objects.empty()) return;
        // A contiguous single-tier run serializes as an interval too, to
        // keep the snapshot compressed.
        const objstore::Tier tier = objstore::tier_of(objects.front());
        for (std::size_t i = 1; i < objects.size(); ++i) {
          if (objstore::tier_of(objects[i]) != tier ||
              objstore::event_of(objects[i]) !=
                  objstore::event_of(objects[i - 1]) + 1) {
            snapshot.packed.push_back(
                IndexSnapshot::PackedEntry{file, objects});
            return;
          }
        }
        snapshot.ranges.push_back(IndexSnapshot::RangeEntry{
            file, tier, objstore::event_of(objects.front()),
            objstore::event_of(objects.back()) + 1});
      });
  return snapshot;
}

void encode_snapshot(rpc::Writer& w, const IndexSnapshot& snapshot) {
  w.u64(snapshot.generation);
  w.u32(static_cast<std::uint32_t>(snapshot.ranges.size()));
  for (const auto& entry : snapshot.ranges) {
    w.str(entry.file);
    w.u8(static_cast<std::uint8_t>(entry.tier));
    w.i64(entry.event_lo);
    w.i64(entry.event_hi);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.packed.size()));
  for (const auto& entry : snapshot.packed) {
    w.str(entry.file);
    w.u32(static_cast<std::uint32_t>(entry.objects.size()));
    for (const ObjectId id : entry.objects) w.u64(id.value);
  }
}

IndexSnapshot decode_snapshot(rpc::Reader& r) {
  IndexSnapshot snapshot;
  snapshot.generation = r.u64();
  const std::uint32_t ranges = r.u32();
  for (std::uint32_t i = 0; i < ranges && r.ok(); ++i) {
    IndexSnapshot::RangeEntry entry;
    entry.file = r.str();
    entry.tier = static_cast<objstore::Tier>(r.u8());
    entry.event_lo = r.i64();
    entry.event_hi = r.i64();
    snapshot.ranges.push_back(std::move(entry));
  }
  const std::uint32_t packed = r.u32();
  for (std::uint32_t i = 0; i < packed && r.ok(); ++i) {
    IndexSnapshot::PackedEntry entry;
    entry.file = r.str();
    const std::uint32_t n = r.u32();
    entry.objects.reserve(n);
    for (std::uint32_t j = 0; j < n && r.ok(); ++j) {
      entry.objects.push_back(ObjectId{r.u64()});
    }
    snapshot.packed.push_back(std::move(entry));
  }
  return snapshot;
}

void GlobalObjectIndex::update_site(const std::string& site,
                                    IndexSnapshot snapshot) {
  SiteIndex index;
  index.snapshot = std::move(snapshot);
  for (std::size_t i = 0; i < index.snapshot.ranges.size(); ++i) {
    const auto& entry = index.snapshot.ranges[i];
    index.tier_ranges[static_cast<std::size_t>(entry.tier)].push_back(
        RangeSlot{entry.event_lo, i});
  }
  for (auto& ranges : index.tier_ranges) {
    // Stable, so that equal starts keep snapshot order.
    std::stable_sort(ranges.begin(), ranges.end(),
                     [](const RangeSlot& a, const RangeSlot& b) {
                       return a.event_lo < b.event_lo;
                     });
  }
  for (std::size_t i = 0; i < index.snapshot.packed.size(); ++i) {
    for (const ObjectId id : index.snapshot.packed[i].objects) {
      index.packed_index[id].push_back(i);
    }
  }
  sites_[site] = std::move(index);
}

void GlobalObjectIndex::forget_site(const std::string& site) {
  sites_.erase(site);
}

template <class Visit>
bool GlobalObjectIndex::visit_ranges(const SiteIndex& index, ObjectId id,
                                     Visit&& visit) {
  const std::int64_t event = objstore::event_of(id);
  const auto& ranges =
      index.tier_ranges[static_cast<std::size_t>(objstore::tier_of(id))];
  for (auto it = std::upper_bound(
           ranges.begin(), ranges.end(), event,
           [](std::int64_t e, const RangeSlot& slot) {
             return e < slot.event_lo;
           });
       it != ranges.begin();) {
    const auto& entry = index.snapshot.ranges[(--it)->entry];
    if (event < entry.event_hi && visit(entry)) return true;
  }
  return false;
}

bool GlobalObjectIndex::site_has(const SiteIndex& index, ObjectId id) {
  return visit_ranges(index, id,
                      [](const IndexSnapshot::RangeEntry&) { return true; }) ||
         index.packed_index.contains(id);
}

std::vector<RemoteObject> GlobalObjectIndex::locate(ObjectId id) const {
  std::vector<RemoteObject> out;
  for (const auto& [site, index] : sites_) {
    visit_ranges(index, id, [&](const IndexSnapshot::RangeEntry& entry) {
      out.push_back(RemoteObject{site, entry.file});
      return false;
    });
    if (const auto pit = index.packed_index.find(id);
        pit != index.packed_index.end()) {
      for (const std::size_t i : pit->second) {
        out.push_back(RemoteObject{site, index.snapshot.packed[i].file});
      }
    }
  }
  return out;
}

std::map<std::string, std::vector<ObjectId>> GlobalObjectIndex::plan(
    const std::vector<ObjectId>& needed) const {
  std::map<std::string, std::vector<ObjectId>> out;
  std::vector<ObjectId> remaining = needed;
  // Which remaining ids the site being counted holds, and the same record
  // for the best site so far: each site is evaluated once per round.
  std::vector<bool> held;
  std::vector<bool> best_held;
  // Greedy: repeatedly assign the site holding the most of the remainder
  // (the first site in name order on a tie).
  while (!remaining.empty()) {
    const std::string* best_site = nullptr;
    std::size_t best_count = 0;
    for (const auto& [site, index] : sites_) {
      if (out.contains(site)) continue;
      held.assign(remaining.size(), false);
      std::size_t count = 0;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (site_has(index, remaining[i])) {
          held[i] = true;
          ++count;
        }
      }
      if (count > best_count) {
        best_count = count;
        best_site = &site;
        held.swap(best_held);
      }
    }
    if (best_count == 0) {
      out[""].insert(out[""].end(), remaining.begin(), remaining.end());
      return out;
    }
    std::vector<ObjectId> taken;
    std::vector<ObjectId> rest;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      (best_held[i] ? taken : rest).push_back(remaining[i]);
    }
    out[*best_site] = std::move(taken);
    remaining = std::move(rest);
  }
  return out;
}

std::uint64_t GlobalObjectIndex::site_generation(
    const std::string& site) const {
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.snapshot.generation;
}

}  // namespace gdmp::objrep
