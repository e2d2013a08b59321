#include "mem/memory_system.hpp"

#include <bit>
#include <string>

namespace cvmt {

void MemorySystemConfig::validate() const {
  icache.validate();
  dcache.validate();
  if (has_l2) l2.validate();
  CVMT_REQUIRE(dcache_banks >= 1 &&
                     std::has_single_bit(
                         static_cast<unsigned>(dcache_banks)),
                 "dcache bank count must be a power of two");
  CVMT_REQUIRE(dcache_banks <= kMaxDcacheBanks,
               "dcache bank count " + std::to_string(dcache_banks) +
                   " exceeds " + std::to_string(kMaxDcacheBanks));
  CVMT_REQUIRE(bank_conflict_penalty >= 0,
                 "negative bank conflict penalty");
}

MemorySystem::MemorySystem(const MemorySystemConfig& config, int num_threads)
    : config_(config), num_threads_(num_threads) {
  CVMT_CHECK(num_threads >= 1);
  config.validate();
  dbank_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(config.dcache.line_bytes));
  const int n = config.sharing == CacheSharing::kShared ? 1 : num_threads;
  icaches_.reserve(static_cast<std::size_t>(n));
  dcaches_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    icaches_.emplace_back(config.icache);
    dcaches_.emplace_back(config.dcache);
  }
  if (config.has_l2) l2_.emplace_back(config.l2);
}

SetAssocCache& MemorySystem::icache_for(int tid) {
  CVMT_DCHECK(tid >= 0 && tid < num_threads_);
  return icaches_[config_.sharing == CacheSharing::kShared
                      ? 0
                      : static_cast<std::size_t>(tid)];
}

SetAssocCache& MemorySystem::dcache_for(int tid) {
  CVMT_DCHECK(tid >= 0 && tid < num_threads_);
  return dcaches_[config_.sharing == CacheSharing::kShared
                      ? 0
                      : static_cast<std::size_t>(tid)];
}

MemAccessResult MemorySystem::fetch(int tid, std::uint64_t pc) {
  if (config_.perfect) return {true, 0, 0};
  const bool hit = icache_for(tid).access(pc);
  if (hit) return {true, 0, 0};
  int penalty = config_.icache.miss_penalty;
  if (!l2_.empty() && !l2_[0].access(pc)) penalty += config_.l2.miss_penalty;
  return {false, penalty, 0};
}

MemAccessResult MemorySystem::data_access(int tid, std::uint64_t addr) {
  if (config_.perfect) return {true, 0, 0};
  const int bank = bank_of(addr);
  const bool hit = dcache_for(tid).access(addr);
  if (hit) return {true, 0, bank};
  int penalty = config_.dcache.miss_penalty;
  if (!l2_.empty() && !l2_[0].access(addr))
    penalty += config_.l2.miss_penalty;
  return {false, penalty, bank};
}

RatioCounter MemorySystem::icache_stats() const {
  RatioCounter total;
  for (const auto& c : icaches_) {
    total.hits += c.stats().hits;
    total.total += c.stats().total;
  }
  return total;
}

RatioCounter MemorySystem::dcache_stats() const {
  RatioCounter total;
  for (const auto& c : dcaches_) {
    total.hits += c.stats().hits;
    total.total += c.stats().total;
  }
  return total;
}

RatioCounter MemorySystem::l2_stats() const {
  RatioCounter total;
  for (const auto& c : l2_) {
    total.hits += c.stats().hits;
    total.total += c.stats().total;
  }
  return total;
}

}  // namespace cvmt
