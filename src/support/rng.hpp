// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator (trace synthesis, OS thread
// replacement) draws from these generators so a (seed, config) pair fully
// determines simulation output. std::mt19937 is avoided because its state is
// large and its distributions are not reproducible across standard library
// implementations; all distribution code here is self-contained.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "support/check.hpp"

namespace cvmt {

/// SplitMix64: tiny generator used for seeding and cheap decorrelated
/// streams. Passes BigCrush when used as a 64-bit generator.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A Bernoulli probability compiled once for Xoshiro256::next_bool: the
/// draw becomes an integer compare, with no conversion to double. With
/// k = next() >> 11, next_bool(double p) tests k * 2^-53 < p; scaling by
/// 2^53 is exact, and for an integer k, k < x holds exactly when
/// k < ceil(x). So k < ceil(p * 2^53) gives the same answer for every
/// draw. As in next_bool(double), p <= 0 and p >= 1 draw nothing, and a
/// NaN p draws and returns false.
class Bernoulli {
 public:
  Bernoulli() = default;  ///< p = 0
  explicit Bernoulli(double p);

 private:
  friend class Xoshiro256;
  /// Bit 63 set: no draw, and bit 0 is the result. Otherwise the
  /// threshold ceil(p * 2^53), in [0, 2^53).
  static constexpr std::uint64_t kNoDraw = std::uint64_t{1} << 63;
  std::uint64_t threshold_ = kNoDraw;
};

/// Xoshiro256**: the workhorse generator. Small state, fast, high quality.
/// The full state is copyable, which the resumable trace generators rely on.
class Xoshiro256 {
 public:
  /// Seeds the four state words from SplitMix64 as recommended by the
  /// xoshiro authors (avoids the all-zero state).
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction
  /// with rejection, so results are unbiased. `bound` must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double();

  /// Bernoulli draw with probability `p` (clamped to [0,1]).
  bool next_bool(double p);

  /// next_bool(p) for a precompiled `p`: the same draws, the same results.
  bool next_bool(Bernoulli p) {
    if ((p.threshold_ & Bernoulli::kNoDraw) != 0)
      return (p.threshold_ & 1) != 0;
    return (next() >> 11) < p.threshold_;
  }

  /// Samples an index according to non-negative `weights` (not necessarily
  /// normalised). At least one weight must be positive.
  std::size_t next_weighted(std::span<const double> weights);

  /// Geometric-ish positive integer with mean approximately `mean` (>= 1).
  /// Used for loop trip counts.
  std::uint64_t next_trip_count(double mean);

  friend bool operator==(const Xoshiro256& a, const Xoshiro256& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace cvmt
