// The memory hierarchy seen by the multithreaded core: one ICache and one
// DCache (shared by all hardware threads, as in the ST200-derived design),
// optionally private per thread or perfect (no misses) for the IPCp column
// of Table 1. An optional unified L2 sits under the L1s, and the DCache may
// be banked (line-interleaved); both default off, preserving the paper's
// flat single-level hierarchy bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "mem/cache.hpp"

namespace cvmt {

/// Cache sharing arrangement across hardware threads.
enum class CacheSharing : std::uint8_t {
  kShared,   ///< one ICache + one DCache for all threads (default)
  kPrivate,  ///< per-thread caches (ablation)
};

/// The DCache banks one issued packet touches, one bit per bank: the
/// core charges a same-packet bank conflict from it, so its width caps a
/// machine's bank count.
using BankMask = std::uint32_t;
inline constexpr int kMaxDcacheBanks = std::numeric_limits<BankMask>::digits;

/// Configuration of the whole memory system.
struct MemorySystemConfig {
  CacheConfig icache;  ///< 64KB 4-way, 20-cycle penalty by default
  CacheConfig dcache;
  CacheSharing sharing = CacheSharing::kShared;
  /// Perfect memory: every access hits (paper's IPCp measurements).
  bool perfect = false;

  /// Unified second-level cache under the L1s, always shared. An L1 miss
  /// probes the L2: an L2 hit costs the L1 miss penalty alone, an L2 miss
  /// adds the L2 miss penalty on top. Off by default (the paper's flat
  /// hierarchy: every L1 miss pays the full memory latency).
  bool has_l2 = false;
  CacheConfig l2{256 * 1024, 64, 8, 80};

  /// Line-interleaved DCache banks (power of two, at most
  /// kMaxDcacheBanks). With banks > 1, each data access reports its bank
  /// so the core can charge serialization when one packet's accesses
  /// collide on a bank. 1 = unbanked.
  int dcache_banks = 1;
  /// Extra cycles per same-packet access that re-touches a busy bank.
  int bank_conflict_penalty = 1;

  void validate() const;

  [[nodiscard]] friend bool operator==(const MemorySystemConfig&,
                                       const MemorySystemConfig&) = default;
};

/// Result of a timed memory access.
struct MemAccessResult {
  bool hit = true;
  int penalty_cycles = 0;  ///< 0 on hit; miss penalties of the levels missed
  int bank = 0;            ///< DCache bank touched (0 when unbanked)
};

/// Facade over the I/D caches with per-thread routing and aggregate stats.
class MemorySystem {
 public:
  MemorySystem(const MemorySystemConfig& config, int num_threads);

  /// Instruction fetch of the line holding `pc` by hardware thread `tid`.
  MemAccessResult fetch(int tid, std::uint64_t pc);

  /// Data access (load or store) by hardware thread `tid`.
  MemAccessResult data_access(int tid, std::uint64_t addr);

  [[nodiscard]] const MemorySystemConfig& config() const { return config_; }

  /// Aggregate hit-rate over all ICache (resp. DCache) instances.
  [[nodiscard]] RatioCounter icache_stats() const;
  [[nodiscard]] RatioCounter dcache_stats() const;
  /// L2 hit-rate; zero counters when the machine has no L2.
  [[nodiscard]] RatioCounter l2_stats() const;

  /// DCache bank of `addr` (0 when unbanked). Line-interleaved.
  [[nodiscard]] int bank_of(std::uint64_t addr) const {
    return config_.dcache_banks > 1
               ? static_cast<int>((addr >> dbank_shift_) &
                                  static_cast<std::uint64_t>(
                                      config_.dcache_banks - 1))
               : 0;
  }

 private:
  [[nodiscard]] SetAssocCache& icache_for(int tid);
  [[nodiscard]] SetAssocCache& dcache_for(int tid);

  MemorySystemConfig config_;
  int num_threads_;
  std::uint32_t dbank_shift_ = 0;       // log2(dcache line bytes)
  std::vector<SetAssocCache> icaches_;  // 1 if shared, num_threads if private
  std::vector<SetAssocCache> dcaches_;
  std::vector<SetAssocCache> l2_;  // empty, or exactly one unified L2
};

}  // namespace cvmt
