// The experiment's object data model (§2.1).
//
// Every collision observed by the detector is an *event* with a unique
// event number. Each event owns one persistent object per data tier: a tiny
// tag, analysis-object data (AOD), event summary data (ESD) and the raw
// detector read-out — "100 byte to 10 MB objects", 10^7..10^9 of them.
//
// Objects are identified by a packed 64-bit id (tier in the top byte,
// event number below), and their sizes derive deterministically from the
// model, so a petabyte-scale experiment costs no memory to represent.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace gdmp::objstore {

enum class Tier : std::uint8_t {
  kTag = 0,  // ~100 B: trigger/selection summary
  kAod = 1,  // ~10 KB: analysis object data (the paper's "type X" example)
  kEsd = 2,  // ~100 KB: event summary data
  kRaw = 3,  // ~1 MB: raw detector read-out
};

constexpr std::array<Tier, 4> kAllTiers = {Tier::kTag, Tier::kAod, Tier::kEsd,
                                           Tier::kRaw};

/// False for a tier byte outside kAllTiers, as a decoded id may carry.
constexpr bool valid_tier(Tier tier) noexcept {
  return static_cast<std::size_t>(tier) < kAllTiers.size();
}

const char* tier_name(Tier tier) noexcept;

constexpr ObjectId make_object_id(Tier tier, std::int64_t event) noexcept {
  return ObjectId{(static_cast<std::uint64_t>(tier) << 56) |
                  (static_cast<std::uint64_t>(event) & 0x00ffffffffffffffULL)};
}

constexpr Tier tier_of(ObjectId id) noexcept {
  return static_cast<Tier>(id.value >> 56);
}

constexpr std::int64_t event_of(ObjectId id) noexcept {
  return static_cast<std::int64_t>(id.value & 0x00ffffffffffffffULL);
}

/// Size/shape parameters of one tier.
struct TierSpec {
  Bytes object_size = 10 * kKiB;
  /// Objects per database file for the clustered production layout
  /// ("the object persistency solutions used only work efficiently if
  /// there are many objects per file").
  std::int64_t objects_per_file = 1000;
};

/// The experiment's data model: event count plus per-tier specs.
class EventModel {
 public:
  EventModel(std::int64_t event_count, std::array<TierSpec, 4> tiers)
      : event_count_(event_count), tiers_(tiers) {}

  /// A scaled-down version of the paper's next-generation experiment:
  /// tag 100 B, AOD 10 KB, ESD 100 KB, raw 1 MB.
  static EventModel standard(std::int64_t event_count);

  std::int64_t event_count() const noexcept { return event_count_; }
  const TierSpec& tier(Tier tier) const noexcept {
    return tiers_[static_cast<std::size_t>(tier)];
  }

  Bytes object_size(ObjectId id) const noexcept {
    return tier(tier_of(id)).object_size;
  }

  /// Total bytes of one tier across all events.
  Bytes tier_bytes(Tier tier) const noexcept {
    return event_count_ * this->tier(tier).object_size;
  }

  /// Objects of the same event navigate to each other (tag -> AOD -> ESD ->
  /// raw): the "navigational association" that couples files (§2.1).
  static ObjectId associated(ObjectId id, Tier target) noexcept {
    return make_object_id(target, event_of(id));
  }

 private:
  std::int64_t event_count_;
  std::array<TierSpec, 4> tiers_;
};

}  // namespace gdmp::objstore
