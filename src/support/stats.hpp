// Streaming statistics helpers used by simulator counters and experiment
// post-processing.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cvmt {

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over small non-negative integers (e.g. "number of
/// threads issued per cycle", 0..N). Values beyond the last bucket clamp.
class Histogram {
 public:
  explicit Histogram(std::size_t buckets) : counts_(buckets, 0) {}

  void add(std::size_t value, std::uint64_t weight = 1);

  /// Rebuilds a histogram from its serialized state (the result store's
  /// round trip). Buckets alone cannot reproduce one: add() clamps the
  /// bucket index but accumulates the unclamped value into the weighted
  /// sum, so the sum is carried explicitly. restored(counts, total, sum)
  /// of a dumped histogram equals the original bit-for-bit.
  [[nodiscard]] static Histogram restored(std::vector<std::uint64_t> counts,
                                          std::uint64_t total,
                                          std::uint64_t weighted_sum);

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const;
  [[nodiscard]] std::size_t num_buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Weight-scaled sum of the recorded values (the mean's numerator),
  /// exposed exactly so restored() can round-trip it; see restored().
  [[nodiscard]] std::uint64_t weighted_sum() const { return weighted_sum_; }
  /// Mean of the recorded integer values.
  [[nodiscard]] double mean() const;
  /// Fraction of samples in bucket `i` (0 if empty histogram).
  [[nodiscard]] double fraction(std::size_t i) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t weighted_sum_ = 0;
};

/// Ratio counter for hit/miss style events.
struct RatioCounter {
  std::uint64_t hits = 0;
  std::uint64_t total = 0;

  void record(bool hit) {
    ++total;
    hits += hit ? 1u : 0u;
  }
  [[nodiscard]] double rate() const {
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// Percentage difference (a vs b), i.e. 100 * (a - b) / b.
[[nodiscard]] double percent_diff(double a, double b);

}  // namespace cvmt
