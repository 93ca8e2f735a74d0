#include "objstore/object_file_catalog.h"

#include <bit>

namespace gdmp::objstore {

Status ObjectFileCatalog::add_range_file(const std::string& file, Tier tier,
                                         std::int64_t event_lo,
                                         std::int64_t event_hi,
                                         const EventModel& model) {
  if (event_lo < 0 || event_hi <= event_lo) {
    return make_error(ErrorCode::kInvalidArgument,
                      "bad event range for " + file);
  }
  if (has_file(file)) {
    return make_error(ErrorCode::kAlreadyExists, "file registered: " + file);
  }
  const auto it =
      range_files_
          .emplace(file, RangeFile{tier, event_lo, event_hi,
                                   model.tier(tier).object_size})
          .first;
  // After any equal starts, so that equal starts keep registration order.
  auto& index = tier_ranges_[static_cast<std::size_t>(tier)];
  index.insert(
      std::upper_bound(index.begin(), index.end(), event_lo, starts_after),
      RangeSlot{event_lo, &*it});
  return Status::ok();
}

Status ObjectFileCatalog::add_packed_file(const std::string& file,
                                          std::vector<ObjectId> objects,
                                          const EventModel& model) {
  if (has_file(file)) {
    return make_error(ErrorCode::kAlreadyExists, "file registered: " + file);
  }
  // gdmp-lint: hot-alloc — catalog ingest; one entry per packed file registration
  const auto it = packed_files_.emplace(file, PackedFile{}).first;
  PackedFile& packed = it->second;
  packed.objects = std::move(objects);
  packed.offsets.reserve(packed.objects.size());
  Bytes offset = 0;
  for (std::size_t i = 0; i < packed.objects.size(); ++i) {
    const ObjectId id = packed.objects[i];
    packed.offsets.push_back(offset);
    offset += model.object_size(id);
    append_posting(id, &*it, static_cast<std::uint32_t>(i));
  }
  return Status::ok();
}

void ObjectFileCatalog::append_posting(ObjectId id, const PackedEntry* file,
                                       std::uint32_t position) {
  if (2 * (slots_used_ + 1) > slots_.size()) grow_slots();
  Slot& slot = slots_[probe(id)];
  if (slot.head != kNone && postings_[slot.tail].file == file) {
    // A repeated id keeps pointing at its first occurrence in this file.
    position = postings_[slot.tail].position;
  }
  std::uint32_t p = free_postings_;
  if (p != kNone) {
    free_postings_ = postings_[p].next;
    postings_[p] = Posting{file, position, kNone};
  } else {
    p = static_cast<std::uint32_t>(postings_.size());
    // gdmp-lint: hot-alloc — catalog ingest; the pool grows to the peak posting count, then recycles
    postings_.push_back(Posting{file, position, kNone});
  }
  if (slot.head == kNone) {
    slot = Slot{id, p, p};
    ++slots_used_;
  } else {
    postings_[slot.tail].next = p;
    slot.tail = p;
  }
}

void ObjectFileCatalog::drop_postings(ObjectId id, const PackedEntry* file) {
  std::size_t hole = probe(id);
  Slot& slot = slots_[hole];
  if (slot.head == kNone) return;  // a repeated id, already dropped
  slot.tail = kNone;
  for (std::uint32_t* link = &slot.head; *link != kNone;) {
    const std::uint32_t p = *link;
    if (postings_[p].file == file) {
      *link = postings_[p].next;
      postings_[p].next = free_postings_;
      free_postings_ = p;
    } else {
      slot.tail = p;
      link = &postings_[p].next;
    }
  }
  if (slot.head != kNone) return;
  // The chain emptied: free the slot by backward-shift deletion, moving
  // every later entry of the probe run whose home is not in (hole, i].
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i].head != kNone;
       i = (i + 1) & mask) {
    if (((i - home(slots_[i].id)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --slots_used_;
}

void ObjectFileCatalog::grow_slots() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  for (const Slot& slot : old) {
    if (slot.head != kNone) slots_[probe(slot.id)] = slot;
  }
}

Status ObjectFileCatalog::remove_file(const std::string& file) {
  if (const auto it = range_files_.find(file); it != range_files_.end()) {
    auto& index = tier_ranges_[static_cast<std::size_t>(it->second.tier)];
    index.erase(std::find_if(index.begin(), index.end(),
                             [entry = &*it](const RangeSlot& slot) {
                               return slot.entry == entry;
                             }));
    range_files_.erase(it);
    return Status::ok();
  }
  if (const auto it = packed_files_.find(file); it != packed_files_.end()) {
    // Walks the file's own layout, never the hash table, so removal order
    // is independent of the hash seed.
    for (const ObjectId id : it->second.objects) drop_postings(id, &*it);
    packed_files_.erase(it);
    return Status::ok();
  }
  return make_error(ErrorCode::kNotFound, "file not registered: " + file);
}

bool ObjectFileCatalog::has_file(const std::string& file) const noexcept {
  return range_files_.contains(file) || packed_files_.contains(file);
}

void ObjectFileCatalog::set_resident(std::string_view file, bool resident) {
  if (const auto it = range_files_.find(file); it != range_files_.end()) {
    it->second.resident = resident;
  } else if (const auto pit = packed_files_.find(file);
             pit != packed_files_.end()) {
    pit->second.resident = resident;
  }
}

std::vector<ObjectLocation> ObjectFileCatalog::locate(ObjectId id) const {
  std::vector<ObjectLocation> out;
  visit_locations(id, [&out](const std::string& file, Bytes offset, bool) {
    out.push_back(ObjectLocation{file, offset});
    return false;
  });
  return out;
}

bool ObjectFileCatalog::contains(ObjectId id) const {
  return visit_locations(
      id, [](const std::string&, Bytes, bool) { return true; });
}

Result<std::vector<ObjectId>> ObjectFileCatalog::objects_in(
    const std::string& file) const {
  if (const auto it = range_files_.find(file); it != range_files_.end()) {
    std::vector<ObjectId> out;
    out.reserve(
        static_cast<std::size_t>(it->second.event_hi - it->second.event_lo));
    for (std::int64_t e = it->second.event_lo; e < it->second.event_hi; ++e) {
      out.push_back(make_object_id(it->second.tier, e));
    }
    return out;
  }
  if (const auto it = packed_files_.find(file); it != packed_files_.end()) {
    return it->second.objects;
  }
  return make_error(ErrorCode::kNotFound, "file not registered: " + file);
}

Result<Bytes> ObjectFileCatalog::file_payload(const std::string& file,
                                              const EventModel& model) const {
  if (const auto it = range_files_.find(file); it != range_files_.end()) {
    return (it->second.event_hi - it->second.event_lo) *
           it->second.object_size;
  }
  if (const auto it = packed_files_.find(file); it != packed_files_.end()) {
    Bytes total = 0;
    for (const ObjectId id : it->second.objects) {
      total += model.object_size(id);
    }
    return total;
  }
  return make_error(ErrorCode::kNotFound, "file not registered: " + file);
}

}  // namespace gdmp::objstore
