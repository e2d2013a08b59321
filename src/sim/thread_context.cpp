#include "sim/thread_context.hpp"

#include <algorithm>

namespace cvmt {

ThreadContext::ThreadContext(std::string name,
                             std::shared_ptr<const SyntheticProgram> program,
                             std::uint64_t stream_seed,
                             std::uint64_t instruction_budget)
    : name_(std::move(name)),
      gen_(std::move(program), stream_seed),
      budget_(instruction_budget) {
  CVMT_CHECK(budget_ >= 1);
}

void ThreadContext::refill(std::uint64_t cycle, MemorySystem& mem,
                           int hw_tid) {
  pending_ = &gen_.peek();
  // Fetch starts once the previous instruction's stalls resolve; an
  // ICache miss then delays issue further.
  const MemAccessResult fetch = mem.fetch(hw_tid, gen_.peek_pc());
  if (!fetch.hit) {
    ready_at_ = std::max(ready_at_, cycle) +
                static_cast<std::uint64_t>(fetch.penalty_cycles);
    stats_.icache_stall_cycles +=
        static_cast<std::uint64_t>(fetch.penalty_cycles);
  }
}

int ThreadContext::consume(std::uint64_t cycle, MemorySystem& mem,
                           int hw_tid, const StallCosts& costs) {
  CVMT_CHECK_MSG(pending_ != nullptr && cycle >= ready_at_,
                 "consume without a ready offer");
  // Execution stalls: taken-branch squash plus DCache misses. Only the
  // memory and branch ops are timing-relevant, and retiring the
  // instruction draws exactly their per-execution data: each data address
  // in op order, accessed here as it is drawn, and the branch directions.
  std::uint64_t stall = 1;
  int dmiss_total = 0;
  int dmiss_max = 0;
  BankMask banks_touched = 0;
  int bank_conflicts = 0;
  // Counted without branching on the instruction: whether it is a bubble
  // or a taken branch follows the random stream.
  const int ops = pending_->op_count;
  ++stats_.instructions;
  stats_.ops += static_cast<std::uint64_t>(ops);
  stats_.bubbles += ops == 0 ? 1 : 0;
  const bool taken = gen_.retire([&](std::uint64_t addr) {
    const MemAccessResult r = mem.data_access(hw_tid, addr);
    dmiss_total += r.penalty_cycles;
    dmiss_max = std::max(dmiss_max, r.penalty_cycles);
    if (costs.banked) {
      // Same-packet accesses to one bank serialize: each repeat pays the
      // conflict penalty (the first access per bank is free).
      const BankMask bit = BankMask{1} << r.bank;
      if ((banks_touched & bit) != 0) ++bank_conflicts;
      banks_touched |= bit;
    }
  }) != 0;
  if (bank_conflicts > 0) {
    const int extra = bank_conflicts * costs.bank_conflict_penalty;
    stall += static_cast<std::uint64_t>(extra);
    stats_.bank_conflict_cycles += static_cast<std::uint64_t>(extra);
  }
  const int dmiss = costs.miss_policy == MissPolicy::kSerialized
                        ? dmiss_total
                        : dmiss_max;
  stall += static_cast<std::uint64_t>(dmiss);
  stats_.dcache_stall_cycles += static_cast<std::uint64_t>(dmiss);
  const std::uint64_t squash =
      taken ? static_cast<std::uint64_t>(costs.taken_branch_penalty) : 0;
  stats_.taken_branches += taken ? 1 : 0;
  stall += squash;
  stats_.branch_stall_cycles += squash;
  ready_at_ = cycle + stall;
  pending_ = nullptr;
  if (stats_.instructions >= budget_) done_ = true;
  return ops;
}

}  // namespace cvmt
