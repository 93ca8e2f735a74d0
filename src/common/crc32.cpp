#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace gdmp {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;  // reflected IEEE 802.3

// Slice-by-8 (Intel's 2006 technique): kTables[0] is the classic byte
// table; kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight input bytes fold into the state with eight independent table reads
// and two XOR trees — ~5-6x the per-byte loop on the control-plane volumes
// the Data Mover re-checks (§4.3).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = tables[0][c & 0xffu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();
constexpr const auto& kTable = kTables[0];

/// Deterministic content byte for a synthetic file stream.
constexpr std::uint8_t synthetic_byte(std::uint64_t seed,
                                      std::int64_t offset) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint8_t>(z >> 56);
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; ++p, --n) {
    c = kTable[(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

void Crc32::update_synthetic(std::uint64_t seed, std::int64_t offset,
                             std::int64_t n) noexcept {
  // Synthetic streams are sampled, not fully expanded: hashing every byte of
  // a simulated 100 MB file would dominate runtime without adding fidelity.
  // We fold in one content byte per 4 KiB page plus the exact boundaries,
  // which still detects any offset/length/seed mismatch or injected flip of
  // a sampled page.
  constexpr std::int64_t kStride = 4096;
  std::uint32_t c = state_;
  auto feed = [&c](std::uint8_t byte) {
    c = kTable[(c ^ byte) & 0xffu] ^ (c >> 8);
  };
  const std::int64_t end = offset + n;
  for (std::int64_t pos = offset; pos < end; pos += kStride) {
    feed(synthetic_byte(seed, pos));
  }
  if (n > 0) feed(synthetic_byte(seed, end - 1));
  // Fold in the extent itself so equal samples of different lengths differ.
  for (int shift = 0; shift < 64; shift += 8) {
    feed(static_cast<std::uint8_t>(static_cast<std::uint64_t>(n) >> shift));
  }
  state_ = c;
}

static_assert(kTable[0] == 0,
              "SyntheticCrcMemo's zeroed slots must be true entries");
static_assert(std::has_single_bit(SyntheticCrcMemo::kSlots));

std::size_t SyntheticCrcMemo::slot_of(const Crc32& crc, std::uint64_t seed,
                                      std::int64_t offset,
                                      std::int64_t n) noexcept {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(offset) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(n) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(crc.state_) * 0x165667b19e3779f9ULL;
  // murmur3's fmix64 finaliser; unsalted, so GDMP_HASH_SEED cannot move it.
  h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
  h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return static_cast<std::size_t>((h ^ (h >> 33)) & (kSlots - 1));
}

// gdmp-lint: hot-path — every GridFTP range and reply CRC goes through here
void SyntheticCrcMemo::update_synthetic(Crc32& crc, std::uint64_t seed,
                                        std::int64_t offset,
                                        std::int64_t n) noexcept {
  Slot& slot = slots_[slot_of(crc, seed, offset, n)];
  if (slot.before == crc.state_ && slot.seed == seed &&
      slot.offset == offset && slot.n == n) {
    ++hits_;
    crc.state_ = slot.after;
    return;
  }
  ++misses_;
  slot.before = crc.state_;
  slot.seed = seed;
  slot.offset = offset;
  slot.n = n;
  crc.update_synthetic(seed, offset, n);
  slot.after = crc.state_;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

std::uint32_t crc32_synthetic(std::uint64_t seed, std::int64_t offset,
                              std::int64_t n) noexcept {
  Crc32 crc;
  crc.update_synthetic(seed, offset, n);
  return crc.value();
}

}  // namespace gdmp
