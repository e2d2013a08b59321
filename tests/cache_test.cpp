// Tests of the set-associative cache and memory-system facade.
#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "mem/memory_system.hpp"

namespace cvmt {
namespace {

CacheConfig small_cache() {
  CacheConfig c;
  c.size_bytes = 1024;  // 4 sets x 4 ways x 64B
  c.line_bytes = 64;
  c.ways = 4;
  c.miss_penalty = 20;
  return c;
}

TEST(CacheConfig, DefaultIsThePaperCache) {
  const CacheConfig c;
  EXPECT_EQ(c.size_bytes, 64u * 1024);
  EXPECT_EQ(c.ways, 4u);
  EXPECT_EQ(c.miss_penalty, 20);
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.num_sets(), 256u);
}

TEST(CacheConfig, RejectsBadGeometry) {
  CacheConfig c = small_cache();
  c.line_bytes = 48;  // not a power of two
  EXPECT_THROW(c.validate(), CheckError);
  c = small_cache();
  c.size_bytes = 1000;  // not a multiple of line*ways
  EXPECT_THROW(c.validate(), CheckError);
  c = small_cache();
  c.ways = 0;
  EXPECT_THROW(c.validate(), CheckError);
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x103F));  // same 64B line
  EXPECT_FALSE(cache.access(0x1040));  // next line
}

TEST(Cache, ContainsDoesNotFill) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.contains(0x2000));
  EXPECT_FALSE(cache.access(0x2000));
  EXPECT_TRUE(cache.contains(0x2000));
}

TEST(Cache, AssociativityHoldsWaysLines) {
  SetAssocCache cache(small_cache());  // 4 sets => set stride 256B
  // 4 lines mapping to set 0: tags differ by 4*64 = 256.
  for (int i = 0; i < 4; ++i)
    cache.access(static_cast<std::uint64_t>(i) * 256);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(cache.contains(static_cast<std::uint64_t>(i) * 256)) << i;
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  SetAssocCache cache(small_cache());
  for (int i = 0; i < 4; ++i)
    cache.access(static_cast<std::uint64_t>(i) * 256);
  cache.access(0);  // touch line 0: line 1 becomes LRU
  cache.access(4 * 256);  // 5th line in the set evicts line 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(256));
  EXPECT_TRUE(cache.contains(2 * 256));
  EXPECT_TRUE(cache.contains(4 * 256));
}

TEST(Cache, InvalidWaysFillBeforeEviction) {
  SetAssocCache cache(small_cache());
  cache.access(0);
  cache.access(256);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(256));
}

TEST(Cache, StatsTrackHitsAndMisses) {
  SetAssocCache cache(small_cache());
  cache.access(0);
  cache.access(0);
  cache.access(0);
  cache.access(64);
  EXPECT_EQ(cache.stats().total, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, FlushInvalidatesEverything) {
  // A cache empties only by being built anew, as every run builds its
  // own: a new cache holds none of the lines another cache of the same
  // geometry holds, and its counters start at zero.
  SetAssocCache warm(small_cache());
  for (std::uint64_t a = 0; a < 4 * 64; a += 64) warm.access(a);
  const SetAssocCache fresh(small_cache());
  for (std::uint64_t a = 0; a < 4 * 64; a += 64) {
    EXPECT_TRUE(warm.contains(a)) << a;
    EXPECT_FALSE(fresh.contains(a)) << a;
  }
  EXPECT_EQ(fresh.stats().total, 0u);
  EXPECT_EQ(fresh.misses(), 0u);
}

TEST(Cache, StreamingWorkloadMissesEveryLine) {
  SetAssocCache cache(small_cache());
  int misses = 0;
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
    misses += cache.access(a) ? 0 : 1;
  EXPECT_EQ(misses, 1024);
}

TEST(Cache, ResidentWorkingSetAlwaysHitsAfterWarmup) {
  SetAssocCache cache(small_cache());
  for (std::uint64_t a = 0; a < 1024; a += 64) cache.access(a);  // warm
  for (int round = 0; round < 10; ++round)
    for (std::uint64_t a = 0; a < 1024; a += 64)
      EXPECT_TRUE(cache.access(a));
}

TEST(MemorySystem, SharedCachesSeeAllThreads) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.sharing = CacheSharing::kShared;
  MemorySystem mem(cfg, 2);
  EXPECT_FALSE(mem.data_access(0, 0x100).hit);
  EXPECT_TRUE(mem.data_access(1, 0x100).hit);  // warmed by thread 0
}

TEST(MemorySystem, PrivateCachesIsolateThreads) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.sharing = CacheSharing::kPrivate;
  MemorySystem mem(cfg, 2);
  EXPECT_FALSE(mem.data_access(0, 0x100).hit);
  EXPECT_FALSE(mem.data_access(1, 0x100).hit);  // its own cold cache
}

TEST(MemorySystem, PerfectModeNeverMisses) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.perfect = true;
  MemorySystem mem(cfg, 1);
  for (std::uint64_t a = 0; a < 1 << 20; a += 4096) {
    const MemAccessResult r = mem.data_access(0, a);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.penalty_cycles, 0);
  }
  EXPECT_EQ(mem.dcache_stats().total, 0u);  // caches untouched
}

TEST(MemorySystem, MissPenaltyIsReported) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  MemorySystem mem(cfg, 1);
  EXPECT_EQ(mem.fetch(0, 0xABC).penalty_cycles, 20);
  EXPECT_EQ(mem.fetch(0, 0xABC).penalty_cycles, 0);
}

TEST(MemorySystem, StatsAggregateAcrossPrivateCaches) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.sharing = CacheSharing::kPrivate;
  MemorySystem mem(cfg, 3);
  mem.data_access(0, 0);
  mem.data_access(1, 0);
  mem.data_access(2, 0);
  EXPECT_EQ(mem.dcache_stats().total, 3u);
  EXPECT_EQ(mem.dcache_stats().hits, 0u);
}

TEST(MemorySystemConfig, ValidateRejectsBadBankCounts) {
  MemorySystemConfig cfg;
  EXPECT_NO_THROW(cfg.validate());  // defaults are the legacy machine
  cfg.dcache_banks = 3;             // not a power of two
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.dcache_banks = 4;
  cfg.bank_conflict_penalty = -1;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(MemorySystem, L2MissAddsItsPenaltyOnTopOfL1) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();  // L1 penalty 20
  cfg.has_l2 = true;
  cfg.l2 = CacheConfig{8192, 64, 4, 80};
  MemorySystem mem(cfg, 1);
  // Cold: L1 miss + L2 miss -> 20 + 80.
  EXPECT_EQ(mem.data_access(0, 0x100).penalty_cycles, 100);
  // Warm in both: free.
  EXPECT_EQ(mem.data_access(0, 0x100).penalty_cycles, 0);
  EXPECT_EQ(mem.l2_stats().total, 1u);
  EXPECT_EQ(mem.l2_stats().hits, 0u);
}

TEST(MemorySystem, L2HitCostsOnlyTheL1Penalty) {
  // A tiny L1 over a big L2: evict a line from L1, keep it in L2.
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = CacheConfig{128, 64, 1, 20};  // 2 sets, direct
  cfg.has_l2 = true;
  cfg.l2 = CacheConfig{8192, 64, 4, 80};
  MemorySystem mem(cfg, 1);
  EXPECT_EQ(mem.data_access(0, 0x000).penalty_cycles, 100);  // cold both
  EXPECT_EQ(mem.data_access(0, 0x200).penalty_cycles, 100);  // evicts 0x000
  EXPECT_EQ(mem.data_access(0, 0x000).penalty_cycles, 20);   // L2 still has it
}

TEST(MemorySystem, PerfectModeBypassesTheL2Too) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.has_l2 = true;
  cfg.perfect = true;
  MemorySystem mem(cfg, 1);
  EXPECT_EQ(mem.data_access(0, 0x123456).penalty_cycles, 0);
  EXPECT_EQ(mem.l2_stats().total, 0u);
}

TEST(MemorySystem, BankIndexFollowsLineAddress) {
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();  // 64B lines
  cfg.dcache_banks = 4;
  MemorySystem mem(cfg, 1);
  EXPECT_EQ(mem.data_access(0, 0x000).bank, 0);
  EXPECT_EQ(mem.data_access(0, 0x03F).bank, 0);  // same line, same bank
  EXPECT_EQ(mem.data_access(0, 0x040).bank, 1);
  EXPECT_EQ(mem.data_access(0, 0x0C0).bank, 3);
  EXPECT_EQ(mem.data_access(0, 0x100).bank, 0);  // wraps modulo banks
}

TEST(MemorySystem, ResetClearsTheL2) {
  // Each run builds its own memory system, and a new one starts with a
  // cold L2 whatever another one has cached: full double penalty.
  MemorySystemConfig cfg;
  cfg.icache = cfg.dcache = small_cache();
  cfg.has_l2 = true;
  cfg.l2 = CacheConfig{8192, 64, 4, 80};
  MemorySystem warm(cfg, 1);
  EXPECT_EQ(warm.data_access(0, 0x100).penalty_cycles, 100);
  EXPECT_EQ(warm.data_access(0, 0x100).penalty_cycles, 0);
  MemorySystem fresh(cfg, 1);
  EXPECT_EQ(fresh.data_access(0, 0x100).penalty_cycles, 100);
  EXPECT_EQ(fresh.l2_stats().total, 1u);
  EXPECT_EQ(fresh.l2_stats().hits, 0u);
}

}  // namespace
}  // namespace cvmt
