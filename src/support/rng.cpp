#include "support/rng.hpp"

#include <cmath>

namespace cvmt {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Bernoulli::Bernoulli(double p) {
  if (p <= 0.0) return;  // kNoDraw, false
  if (p >= 1.0) {
    threshold_ = kNoDraw | 1;
    return;
  }
  // p in (0, 1) or NaN. NaN compares false everywhere, like the double
  // draw it replaces: threshold 0 draws and always returns false.
  threshold_ = std::isnan(p)
                   ? 0
                   : static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  CVMT_CHECK(bound != 0);
  // Lemire 2019: multiply-shift with rejection for exact uniformity.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::size_t Xoshiro256::next_weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    CVMT_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  CVMT_CHECK_MSG(total > 0.0, "at least one weight must be positive");
  double r = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t Xoshiro256::next_trip_count(double mean) {
  CVMT_CHECK(mean >= 1.0);
  if (mean == 1.0) return 1;
  // Shifted geometric: 1 + Geom(p) has mean 1 + (1-p)/p = 1/p' with
  // p = 1/(mean). Sampled by inversion.
  const double p = 1.0 / mean;
  const double u = next_double();
  const double g = std::floor(std::log1p(-u) / std::log1p(-p));
  return 1 + static_cast<std::uint64_t>(g);
}

}  // namespace cvmt
