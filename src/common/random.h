// Deterministic, seedable pseudo-random generator (xoshiro256**).
//
// Every stochastic element of the simulated grid (workload generation,
// failure injection, cross-traffic jitter) draws from an explicitly seeded
// Rng so runs are exactly reproducible.
#pragma once

#include <cstdint>


namespace gdmp {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Zipf-like rank draw over [0, n): rank r has weight 1/(r+1)^alpha.
  /// The paper cites Zipf access patterns [Bres99] for replica popularity.
  std::int64_t zipf(std::int64_t n, double alpha) noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace gdmp
