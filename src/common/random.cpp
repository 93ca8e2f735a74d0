#include "common/random.h"

#include <cassert>
#include <cmath>

namespace gdmp {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed through splitmix64 as recommended by the xoshiro authors;
  // guarantees a non-zero state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(next() % span);
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

double Rng::exponential(double mean) noexcept {
  assert(mean > 0);
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::int64_t Rng::zipf(std::int64_t n, double alpha) noexcept {
  assert(n > 0);
  // Inverse-CDF by rejection-free approximation: acceptable for workload
  // shaping; exactness of the tail is not load-bearing.
  const double u = uniform();
  // For alpha == 1 the CDF is ~ log; use the closed-form approximation
  // rank = n^u - 1 which preserves the heavy head.
  if (alpha <= 1.0) {
    const double r = std::pow(static_cast<double>(n), u) - 1.0;
    const auto rank = static_cast<std::int64_t>(r);
    return rank < n ? rank : n - 1;
  }
  const double r =
      std::pow(1.0 - u * (1.0 - std::pow(static_cast<double>(n), 1.0 - alpha)),
               1.0 / (1.0 - alpha)) -
      1.0;
  auto rank = static_cast<std::int64_t>(r);
  if (rank < 0) rank = 0;
  return rank < n ? rank : n - 1;
}

}  // namespace gdmp
