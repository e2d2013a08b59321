// Direct unit tests of ThreadContext stall accounting and the OS
// scheduler, using hand-written VEX-asm programs so every cycle is
// predictable.
#include <gtest/gtest.h>

#include "sim/os_scheduler.hpp"
#include "sim/simulation.hpp"
#include "trace/vex_asm.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

/// A core running `scheme` on the paper's machine over `mem`.
MultithreadedCore make_core(
    Scheme scheme, MemorySystem& mem,
    PriorityPolicy priority = PriorityPolicy::kRoundRobin) {
  return MultithreadedCore(
      std::make_shared<const MergePlan>(std::move(scheme), kM), priority, mem,
      MissPolicy::kSerialized);
}

std::shared_ptr<const SyntheticProgram> program_from(
    const std::string& loops) {
  const std::string text =
      ".program unit\n.machine clusters=4 issue=4\n.stride 8\n"
      ".codebytes 32\n.midtaken 0.0\n" +
      loops;
  return parse_program(text, kM);
}

/// One loop: alu, then a taken loop-back branch; no memory.
std::shared_ptr<const SyntheticProgram> alu_branch_program() {
  return program_from(
      ".loop trips=1000 miss=0 code=0x10000 hot=0x20000000+4096 "
      "cold=0x40000000\n{ c0.0 alu }\n{ c0.3 br }\n.endloop\n");
}

/// One loop whose first instruction always misses the DCache twice.
std::shared_ptr<const SyntheticProgram> double_miss_program() {
  return program_from(
      ".loop trips=1000 miss=1.0 code=0x10000 hot=0x20000000+4096 "
      "cold=0x40000000\n{ c0.2 ld ; c1.2 ld }\n{ c0.3 br }\n.endloop\n");
}

/// The stall charges of kM on `mem` under `policy`.
StallCosts costs(const MemorySystem& mem,
                 MissPolicy policy = MissPolicy::kSerialized) {
  return StallCosts::of(kM, mem.config(), policy);
}

/// What the window loop (MultithreadedCore::run_until) offers from `t`
/// at `cycle` in hardware slot 0: it fetches when no instruction is
/// pending, and the fetched instruction is offered once it is ready.
/// nullptr while the thread is stalled or done.
const Footprint* offer(ThreadContext& t, std::uint64_t cycle,
                       MemorySystem& mem) {
  if (t.done()) return nullptr;
  if (!t.has_pending()) t.refill(cycle, mem, 0);
  return cycle >= t.ready_at() ? t.pending_footprint() : nullptr;
}

MemorySystemConfig perfect_mem() {
  MemorySystemConfig cfg;
  cfg.perfect = true;
  return cfg;
}

TEST(ThreadContext, OffersAndConsumesWithPerfectMemory) {
  MemorySystem mem(perfect_mem(), 1);
  ThreadContext t("t", alu_branch_program(), 1, 1000);
  const Footprint* fp = offer(t, 0, mem);
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->total_ops(), 1);  // the alu instruction
  t.consume(0, mem, 0, costs(mem));
  EXPECT_EQ(t.stats().instructions, 1u);
  EXPECT_EQ(t.stats().ops, 1u);
  // Non-branch instruction: ready again the very next cycle.
  EXPECT_NE(offer(t, 1, mem), nullptr);
}

TEST(ThreadContext, TakenBranchCostsThePenalty) {
  MemorySystem mem(perfect_mem(), 1);
  ThreadContext t("t", alu_branch_program(), 1, 1000);
  offer(t, 0, mem);
  t.consume(0, mem, 0, costs(mem));  // alu
  ASSERT_NE(offer(t, 1, mem), nullptr);
  t.consume(1, mem, 0, costs(mem));  // taken branch
  EXPECT_EQ(t.stats().taken_branches, 1u);
  EXPECT_EQ(t.stats().branch_stall_cycles, 2u);
  // Squash penalty: next issue at 1 + 1 + 2 = cycle 4.
  EXPECT_EQ(offer(t, 2, mem), nullptr);
  EXPECT_EQ(offer(t, 3, mem), nullptr);
  EXPECT_NE(offer(t, 4, mem), nullptr);
}

TEST(ThreadContext, SerializedMissesAddUp) {
  MemorySystem mem(MemorySystemConfig{}, 1);
  ThreadContext t("t", double_miss_program(), 1, 1000);
  // First offer pays the compulsory ICache miss.
  EXPECT_EQ(offer(t, 0, mem), nullptr);
  ASSERT_NE(offer(t, 20, mem), nullptr);
  t.consume(20, mem, 0, costs(mem));
  EXPECT_EQ(t.stats().dcache_stall_cycles, 40u);  // two misses, serialized
  // Next issue: 20 + 1 + 40 = 61 (plus ICache hit for the next line).
  EXPECT_EQ(offer(t, 60, mem), nullptr);
  EXPECT_NE(offer(t, 61, mem), nullptr);
}

TEST(ThreadContext, OverlappedMissesPayOnce) {
  MemorySystem mem(MemorySystemConfig{}, 1);
  ThreadContext t("t", double_miss_program(), 1, 1000);
  EXPECT_EQ(offer(t, 0, mem), nullptr);  // compulsory ICache miss
  ASSERT_NE(offer(t, 20, mem), nullptr);
  t.consume(20, mem, 0, costs(mem, MissPolicy::kOverlapped));
  EXPECT_EQ(t.stats().dcache_stall_cycles, 20u);
  EXPECT_NE(offer(t, 41, mem), nullptr);
}

TEST(ThreadContext, IcacheMissDelaysFirstIssueOnly) {
  MemorySystem mem(MemorySystemConfig{}, 1);
  ThreadContext t("t", alu_branch_program(), 1, 1000);
  EXPECT_EQ(offer(t, 0, mem), nullptr);   // compulsory miss
  EXPECT_EQ(offer(t, 19, mem), nullptr);
  ASSERT_NE(offer(t, 20, mem), nullptr);
  t.consume(20, mem, 0, costs(mem));
  // Both body instructions share one 64B line: next fetch hits.
  EXPECT_NE(offer(t, 21, mem), nullptr);
  EXPECT_EQ(t.stats().icache_stall_cycles, 20u);
}

TEST(ThreadContext, BudgetCompletionStopsOffers) {
  MemorySystem mem(perfect_mem(), 1);
  ThreadContext t("t", alu_branch_program(), 1, 3);
  std::uint64_t cycle = 0;
  while (!t.done()) {
    if (offer(t, cycle, mem) != nullptr)
      t.consume(cycle, mem, 0, costs(mem));
    ++cycle;
  }
  EXPECT_EQ(t.stats().instructions, 3u);
  EXPECT_EQ(offer(t, cycle, mem), nullptr);
}

TEST(ThreadContext, ConsumeWithoutOfferIsAnError) {
  MemorySystem mem(perfect_mem(), 1);
  ThreadContext t("t", alu_branch_program(), 1, 10);
  EXPECT_THROW(t.consume(0, mem, 0, costs(mem)),
               CheckError);
}

// ------------------------------------------------------------ Scheduler

std::vector<std::unique_ptr<ThreadContext>> make_pool(int n,
                                                      std::uint64_t budget) {
  std::vector<std::unique_ptr<ThreadContext>> pool;
  for (int i = 0; i < n; ++i)
    pool.push_back(std::make_unique<ThreadContext>(
        "t" + std::to_string(i), alu_branch_program(),
        static_cast<std::uint64_t>(i) + 1, budget));
  return pool;
}

/// The scheduler's non-owning view of `pool`.
std::vector<ThreadContext*> view(
    const std::vector<std::unique_ptr<ThreadContext>>& pool) {
  std::vector<ThreadContext*> threads;
  for (const auto& t : pool) threads.push_back(t.get());
  return threads;
}

TEST(OsScheduler, RunsUntilFirstCompletion) {
  MemorySystem mem(perfect_mem(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1S"), mem);
  auto pool = make_pool(4, 500);
  OsScheduler os(view(pool), 100, 42);
  const std::uint64_t cycles = os.run(core, 1u << 30);
  EXPECT_GT(cycles, 0u);
  std::uint64_t max_instrs = 0;
  for (const auto& t : pool)
    max_instrs = std::max(max_instrs, t->stats().instructions);
  EXPECT_EQ(max_instrs, 500u);
}

TEST(OsScheduler, CountsTimeslicesAndSwitches) {
  MemorySystem mem(perfect_mem(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1S"), mem);
  auto pool = make_pool(4, 2'000);
  OsScheduler os(view(pool), 50, 7);
  const std::uint64_t cycles = os.run(core, 1u << 30);
  EXPECT_EQ(os.stats().timeslices, (cycles + 49) / 50);
  EXPECT_GT(os.stats().context_switches, 2u);
}

TEST(OsScheduler, FewerThreadsThanSlotsLeavesSlotsIdle) {
  MemorySystem mem(perfect_mem(), 4);
  MultithreadedCore core = make_core(Scheme::parse("3CCC"), mem);
  auto pool = make_pool(2, 300);
  OsScheduler os(view(pool), 100, 9);
  os.run(core, 1u << 30);
  // Both threads ran; the other two slots stayed empty and harmless.
  for (const auto& t : pool) EXPECT_GT(t->stats().instructions, 0u);
}

TEST(OsScheduler, AllThreadsProgressUnderRandomReplacement) {
  MemorySystem mem(perfect_mem(), 1);
  MultithreadedCore core = make_core(Scheme::single_thread(), mem);
  auto pool = make_pool(4, 3'000);
  OsScheduler os(view(pool), 64, 11);
  os.run(core, 1u << 30);
  for (const auto& t : pool)
    EXPECT_GT(t->stats().instructions, 100u) << t->name();
}

TEST(OsScheduler, MaxCyclesBoundIsRespected) {
  MemorySystem mem(perfect_mem(), 1);
  MultithreadedCore core = make_core(Scheme::single_thread(), mem);
  auto pool = make_pool(1, 1u << 30);
  OsScheduler os(view(pool), 100, 13);
  EXPECT_EQ(os.run(core, 777), 777u);
}

TEST(OsScheduler, RejectsEmptyPoolAndZeroTimeslice) {
  const auto pool = make_pool(1, 10);
  EXPECT_THROW(OsScheduler({}, 100, 1), CheckError);
  EXPECT_THROW(OsScheduler(view(pool), 0, 1), CheckError);
}

}  // namespace
}  // namespace cvmt
