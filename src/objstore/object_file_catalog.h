// Object-to-file catalog: the middle catalog of Figure 1.
//
// Maps object identifiers to the database files that contain them. Two
// file kinds exist:
//  * range files — the clustered production layout, holding one tier's
//    objects for a contiguous event interval (stored as an interval, so a
//    10^9-event experiment costs O(#files) memory);
//  * packed files — the object copier's output, holding an explicit list
//    of objects (sparse selections).
// An object may live in several files at once ("the new files ... are
// potential object extraction sources for future object replication
// requests", §5.2).
//
// Lookup side (DESIGN.md §5k): the per-tier interval index is a sorted
// vector pointing at range-file entries, each slot carrying the furthest
// event any interval up to it reaches, and each object's packed-file
// membership is a posting {packed-file entry, position} whose offset is
// read from that file's own offsets array. Postings live in one pooled
// array, chained per object in registration order from a seeded
// open-addressing table, so lookups and steady-state churn allocate
// nothing. visit_locations() walks both indexes; a Cursor carries one
// collective lookup's interval walks forward from id to id, so ascending
// ids cost one pass over each tier's intervals. Every entry also carries
// a residency bit (is the file on local disk?) that its owner keeps
// current through set_resident().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/det_hash.h"
#include "common/result.h"
#include "objstore/object_model.h"

namespace gdmp::objstore {

struct ObjectLocation {
  std::string file;
  Bytes offset = 0;  // byte offset within the file
};

class ObjectFileCatalog {
 public:
  ObjectFileCatalog() = default;
  // The indexes point into the file maps' nodes: a copy would dangle, while
  // a move carries the nodes along (the moved-from catalog may only be
  // assigned to or destroyed).
  ObjectFileCatalog(const ObjectFileCatalog&) = delete;
  ObjectFileCatalog& operator=(const ObjectFileCatalog&) = delete;
  ObjectFileCatalog(ObjectFileCatalog&&) = default;
  ObjectFileCatalog& operator=(ObjectFileCatalog&&) = default;

  /// Registers a clustered production file holding `tier` objects for
  /// events [event_lo, event_hi).
  Status add_range_file(const std::string& file, Tier tier,
                        std::int64_t event_lo, std::int64_t event_hi,
                        const EventModel& model);

  /// Registers a packed file holding exactly `objects` (copier output).
  /// Offsets follow the given order.
  Status add_packed_file(const std::string& file,
                         std::vector<ObjectId> objects,
                         const EventModel& model);

  Status remove_file(const std::string& file);
  bool has_file(const std::string& file) const noexcept;

  /// Sets a registered file's residency bit: whether its copy is on local
  /// disk. Files register resident; a file the catalog does not know is
  /// ignored.
  void set_resident(std::string_view file, bool resident);

  /// Where the interval walks of one collective lookup stand: per tier,
  /// the last event looked up and the first interval starting after it.
  /// The next id of that tier resumes the forward step from there when its
  /// event is not lower, and binary-searches when it is; a fresh cursor
  /// always searches. Holds no memory, and is valid only while the catalog
  /// is not modified.
  class Cursor {
    friend class ObjectFileCatalog;
    std::array<std::int64_t, 4> event_{kFresh, kFresh, kFresh, kFresh};
    std::array<std::size_t, 4> after_{};
    static constexpr std::int64_t kFresh =
        std::numeric_limits<std::int64_t>::max();
  };

  /// All files (with offsets) containing the object, in visit order.
  /// Ignores residency, as contains() does.
  std::vector<ObjectLocation> locate(ObjectId id) const;
  bool contains(ObjectId id) const {
    Cursor cursor;
    return contains(id, cursor);
  }
  /// contains() as one id of a collective lookup.
  bool contains(ObjectId id, Cursor& cursor) const;

  /// Calls `visit(file, offset, resident)` for each file holding `id` until
  /// it returns true, and returns whether it did. Order: range files first,
  /// in interval-scan order (latest start first), then packed files in
  /// registration order. A packed file that lists `id` n times is visited
  /// n times, each at the first occurrence's offset.
  template <class Visit>
  bool visit_locations(ObjectId id, Visit&& visit) const {
    Cursor cursor;
    return visit_locations(id, cursor, std::forward<Visit>(visit));
  }

  /// visit_locations() as one id of a collective lookup: ids visited in
  /// ascending order per tier cost one forward walk over the tier's
  /// intervals in all.
  template <class Visit>
  // gdmp-lint: hot-path — every "held locally" probe and copier validation
  bool visit_locations(ObjectId id, Cursor& cursor, Visit&& visit) const {
    if (!valid_tier(tier_of(id))) return false;  // no file can hold it
    const std::int64_t event = event_of(id);
    const auto tier = static_cast<std::size_t>(tier_of(id));
    const auto& index = tier_ranges_[tier];
    // The first interval starting after `event`.
    std::size_t after = cursor.after_[tier];
    if (event < cursor.event_[tier]) {
      after = static_cast<std::size_t>(
          std::upper_bound(index.begin(), index.end(), event, starts_after) -
          index.begin());
    } else {
      while (after < index.size() && index[after].event_lo <= event) ++after;
    }
    cursor.event_[tier] = event;
    cursor.after_[tier] = after;
    // Intervals starting at or before `event`, latest start first. One
    // that ends at or before `event` is skipped, and the walk stops where
    // no interval up to the slot reaches past `event`.
    for (auto it = index.begin() + static_cast<std::ptrdiff_t>(after);
         it != index.begin();) {
      const RangeSlot& slot = *--it;
      if (slot.reach <= event) break;
      const auto& [file, range] = *slot.entry;
      if (event < range.event_hi &&
          visit(file, (event - range.event_lo) * range.object_size,
                range.resident)) {
        return true;
      }
    }
    if (slots_.empty()) return false;
    for (std::uint32_t p = slots_[probe(id)].head; p != kNone;
         p = postings_[p].next) {
      const auto& [file, packed] = *postings_[p].file;
      if (visit(file, packed.offsets[postings_[p].position],
                packed.resident)) {
        return true;
      }
    }
    return false;
  }

  /// Starts loading `id`'s posting-table slot into cache, ahead of a visit.
  void prefetch(ObjectId id) const noexcept {
    if (!slots_.empty()) __builtin_prefetch(&slots_[home(id)]);
  }

  /// Calls `on_range(file, tier, event_lo, event_hi)` for every range file,
  /// then `on_packed(file, objects)` for every packed file, each in file
  /// name order.
  template <class OnRange, class OnPacked>
  void for_each_file(OnRange&& on_range, OnPacked&& on_packed) const {
    for (const auto& [file, range] : range_files_) {
      on_range(file, range.tier, range.event_lo, range.event_hi);
    }
    for (const auto& [file, packed] : packed_files_) {
      on_packed(file, packed.objects);
    }
  }

  /// Objects stored in one file, in layout order.
  Result<std::vector<ObjectId>> objects_in(const std::string& file) const;

  /// Total payload bytes of one file's objects.
  Result<Bytes> file_payload(const std::string& file,
                             const EventModel& model) const;

  std::size_t file_count() const noexcept {
    return range_files_.size() + packed_files_.size();
  }

 private:
  struct RangeFile {
    Tier tier;
    std::int64_t event_lo;
    std::int64_t event_hi;
    Bytes object_size;  // cached from the model at registration
    bool resident = true;
  };

  struct PackedFile {
    std::vector<ObjectId> objects;
    std::vector<Bytes> offsets;  // parallel to objects
    bool resident = true;
  };

  using RangeMap = std::map<std::string, RangeFile, std::less<>>;
  using PackedMap = std::map<std::string, PackedFile, std::less<>>;
  using RangeEntry = RangeMap::value_type;
  using PackedEntry = PackedMap::value_type;

  /// One range file in its tier's interval index. `reach` is the highest
  /// `event_hi` of this slot and every earlier one in the tier.
  struct RangeSlot {
    std::int64_t event_lo;
    std::int64_t reach;
    const RangeEntry* entry;
  };
  static bool starts_after(std::int64_t event, const RangeSlot& slot) {
    return event < slot.event_lo;
  }
  /// Recomputes `reach` from slot `from` to the end of `index`.
  static void update_reach(std::vector<RangeSlot>& index,
                           std::vector<RangeSlot>::iterator from);

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One packed file holding an object: the file's entry, the object's
  /// index in its layout, and the object's next posting (or kNone).
  struct Posting {
    const PackedEntry* file;
    std::uint32_t position;
    std::uint32_t next;
  };

  /// An object's posting chain; a slot with head == kNone is free.
  struct Slot {
    ObjectId id;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  /// First slot of `id`'s linear-probe sequence: the seeded hash spread by
  /// a Fibonacci multiply over the power-of-two table.
  std::size_t home(ObjectId id) const noexcept {
    return static_cast<std::size_t>(
        (common::SeededHash<ObjectId>{}(id) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  /// The slot holding `id`, or the free slot that ends its probe sequence.
  /// The table must be non-empty.
  std::size_t probe(ObjectId id) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(id);
    while (slots_[i].head != kNone && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  /// Appends a posting to `id`'s chain, growing the table as needed.
  void append_posting(ObjectId id, const PackedEntry* file,
                      std::uint32_t position);
  /// Unlinks `id`'s postings into `file` and frees an emptied slot. `id`
  /// must have been posted before, so the table is non-empty.
  void drop_postings(ObjectId id, const PackedEntry* file);
  /// Doubles the table (64 slots at first) and re-places every chain.
  void grow_slots();

  // Map nodes never move, so the indexes below point into them.
  RangeMap range_files_;
  PackedMap packed_files_;
  // Range files per tier, sorted by first event with equal starts in
  // registration order, each with its running reach (range files answer
  // offsets by arithmetic).
  std::array<std::vector<RangeSlot>, 4> tier_ranges_;
  // Packed-file postings per object: an open-addressing table of chain
  // heads over a pooled posting array. Chains keep registration order and
  // the table is only probed (and rehashed as it grows), so the hash seed
  // cannot reach any output.
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t slots_used_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
  std::vector<Posting> postings_;
  std::uint32_t free_postings_ = kNone;  // chained through Posting::next
};

}  // namespace gdmp::objstore
