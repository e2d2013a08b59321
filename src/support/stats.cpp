#include "support/stats.hpp"

#include <cmath>

#include "support/check.hpp"

namespace cvmt {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

void Histogram::add(std::size_t value, std::uint64_t weight) {
  CVMT_CHECK(!counts_.empty());
  const std::size_t b = value < counts_.size() ? value : counts_.size() - 1;
  counts_[b] += weight;
  total_ += weight;
  weighted_sum_ += weight * value;
}

Histogram Histogram::restored(std::vector<std::uint64_t> counts,
                              std::uint64_t total,
                              std::uint64_t weighted_sum) {
  CVMT_CHECK(!counts.empty());
  Histogram h(counts.size());
  h.counts_ = std::move(counts);
  h.total_ = total;
  h.weighted_sum_ = weighted_sum;
  return h;
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  CVMT_CHECK(i < counts_.size());
  return counts_[i];
}

double Histogram::mean() const {
  return total_ ? static_cast<double>(weighted_sum_) /
                      static_cast<double>(total_)
                : 0.0;
}

double Histogram::fraction(std::size_t i) const {
  CVMT_CHECK(i < counts_.size());
  return total_ ? static_cast<double>(counts_[i]) /
                      static_cast<double>(total_)
                : 0.0;
}

double percent_diff(double a, double b) {
  CVMT_CHECK(b != 0.0);
  return 100.0 * (a - b) / b;
}

}  // namespace cvmt
