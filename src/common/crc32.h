// CRC-32 (IEEE 802.3 polynomial, reflected).
//
// GDMP's Data Mover performs an end-to-end CRC check on every replicated
// file beyond TCP's 16-bit checksums (paper §4.3). The simulator carries
// file payloads as synthetic byte streams; the CRC runs over those streams
// so corruption injected anywhere in the path is detected exactly as the
// real tool would.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace gdmp {

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  /// Feeds a chunk of data; chunks may be split arbitrarily.
  void update(std::span<const std::uint8_t> data) noexcept;

  /// Feeds `n` bytes of the deterministic synthetic stream that represents
  /// file content at byte offset `offset` with generation seed `seed`.
  /// Two sites that generate the same (seed, offset, n) range produce
  /// identical CRC contributions — this is how the simulator models
  /// "same file content" without storing gigabytes.
  void update_synthetic(std::uint64_t seed, std::int64_t offset,
                        std::int64_t n) noexcept;

  /// Final CRC value of everything fed so far.
  std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

  void reset() noexcept { state_ = 0xffffffffu; }

 private:
  friend class SyntheticCrcMemo;

  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC over a buffer.
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// One-shot CRC over a synthetic stream (see Crc32::update_synthetic).
std::uint32_t crc32_synthetic(std::uint64_t seed, std::int64_t offset,
                              std::int64_t n) noexcept;

/// Bounded memo of Crc32::update_synthetic (DESIGN.md §5l). Each slot maps
/// (register state before, seed, offset, n) to the register state the loop
/// leaves after feeding that range, so a hit is bit-identical to the loop by
/// construction, for single and multi-range CRCs alike; a miss runs the loop
/// and overwrites the slot. Direct-mapped through a fixed, unsalted mix of
/// the whole key, so hit rates do not depend on GDMP_HASH_SEED. One memo
/// serves one simulation run (sim::Simulator::crc_memo()).
class SyntheticCrcMemo {
 public:
  static constexpr std::size_t kSlots = 1024;

  /// Same effect on `crc` as crc.update_synthetic(seed, offset, n).
  void update_synthetic(Crc32& crc, std::uint64_t seed, std::int64_t offset,
                        std::int64_t n) noexcept;

  /// Same value as ::gdmp::crc32_synthetic(seed, offset, n).
  std::uint32_t crc32_synthetic(std::uint64_t seed, std::int64_t offset,
                                std::int64_t n) noexcept {
    Crc32 crc;
    update_synthetic(crc, seed, offset, n);
    return crc.value();
  }

  /// The slot that feeding (seed, offset, n) into `crc` maps to.
  static std::size_t slot_of(const Crc32& crc, std::uint64_t seed,
                             std::int64_t offset, std::int64_t n) noexcept;

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  // A zeroed slot is a true entry: feeding the eight zero extent bytes of
  // n = 0 into register 0 leaves 0 (crc32.cpp checks this at compile time).
  struct Slot {
    std::uint64_t seed = 0;
    std::int64_t offset = 0;
    std::int64_t n = 0;
    std::uint32_t before = 0;
    std::uint32_t after = 0;
  };

  std::array<Slot, kSlots> slots_{};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace gdmp
