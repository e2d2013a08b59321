#include "mem/cache.hpp"

#include <bit>

namespace cvmt {

void CacheConfig::validate() const {
  CVMT_REQUIRE(std::has_single_bit(static_cast<std::uint64_t>(line_bytes)),
                 "line size must be a power of two");
  CVMT_REQUIRE(ways >= 1, "at least one way");
  CVMT_REQUIRE(size_bytes % (static_cast<std::uint64_t>(line_bytes) * ways)
                     == 0,
                 "size must be a multiple of line*ways");
  CVMT_REQUIRE(std::has_single_bit(num_sets()),
                 "set count must be a power of two");
  CVMT_REQUIRE(miss_penalty >= 0, "negative miss penalty");
}

SetAssocCache::SetAssocCache(const CacheConfig& config)
    : config_(config), num_sets_(config.num_sets()), ways_(config.ways) {
  config_.validate();
  tags_.resize(num_sets_ * ways_);
  stamps_.resize(num_sets_ * ways_);
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
}

bool SetAssocCache::fill(std::size_t base, std::uint64_t tag) {
  // Prefer the first invalid way; otherwise the least recently used one.
  std::size_t victim = base;
  for (std::size_t w = base + 1; w < base + ways_; ++w) {
    if (tags_[victim] == 0) break;
    if (tags_[w] == 0 || stamps_[w] < stamps_[victim]) victim = w;
  }
  tags_[victim] = tag;
  stamps_[victim] = clock_;
  ++misses_;
  return false;
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::size_t base = static_cast<std::size_t>(set_index(addr)) * ways_;
  const std::uint64_t tag = tag_of(addr) + 1;
  for (std::size_t w = base; w < base + ways_; ++w)
    if (tags_[w] == tag) return true;
  return false;
}

}  // namespace cvmt
