// Set-associative cache model with true LRU replacement.
//
// The paper's evaluation machine has 64KB 4-way ICache and DCache with a
// 20-cycle miss penalty (§5.1). Misses block the accessing thread; the
// multithreaded core keeps issuing the other threads, which is where the
// throughput gains of merging come from.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/stats.hpp"

namespace cvmt {

/// Geometry and timing of one cache.
struct CacheConfig {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;
  int miss_penalty = 20;  ///< extra cycles on a miss

  void validate() const;
  [[nodiscard]] std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways);
  }

  [[nodiscard]] friend bool operator==(const CacheConfig&,
                                       const CacheConfig&) = default;
};

/// Blocking set-associative cache with true LRU. Tag state only — data
/// values never matter to timing, so none are stored.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& config);

  /// Looks up `addr`, fills on miss, updates LRU. Returns true on hit.
  /// Inline: the way match is a branch-free scan of one set's tags (valid
  /// tags are unique within a set, so at most one way matches), and the
  /// call overhead of an outlined lookup would be comparable to it. Only
  /// the miss path (victim search and fill) is out of line.
  bool access(std::uint64_t addr) {
    const std::size_t base = static_cast<std::size_t>(set_index(addr)) * ways_;
    const std::uint64_t tag = tag_of(addr) + 1;
    ++clock_;
    std::size_t hit = kNoWay;
    for (std::size_t w = 0; w < ways_; ++w)
      hit = tags_[base + w] == tag ? base + w : hit;
    if (hit == kNoWay) return fill(base, tag);
    stamps_[hit] = clock_;
    return true;
  }

  /// True if the line holding `addr` is currently resident (no LRU update,
  /// no fill). Used by tests and warm-up inspection.
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  /// Hit and access counts. No counter moves on a hit: every access
  /// advances the LRU clock and every miss goes through fill(), so the
  /// accesses are the clock and the hits are the accesses that did not
  /// miss.
  [[nodiscard]] RatioCounter stats() const {
    return {clock_ - misses_, clock_};
  }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return (addr >> line_shift_) >> set_shift_;
  }
  /// Miss tail of access(): victim search and fill of the set at `base`.
  bool fill(std::size_t base, std::uint64_t tag);

  CacheConfig config_;
  std::uint64_t num_sets_;
  std::size_t ways_;
  /// line_bytes and num_sets are validated powers of two; shifting beats
  /// the two 64-bit divisions that used to sit in every lookup.
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = 0;
  /// Per line (num_sets_ x ways, row-major): the stored tag is the
  /// address tag + 1, so 0 marks an invalid line; the stamp is the LRU
  /// clock of the line's last access.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cvmt
