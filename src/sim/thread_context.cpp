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

void ThreadContext::reset(std::string_view name,
                          std::shared_ptr<const SyntheticProgram> program,
                          std::uint64_t stream_seed,
                          std::uint64_t instruction_budget) {
  name_.assign(name);
  pending_program_ = std::move(program);
  pending_seed_ = stream_seed;
  gen_stale_ = true;
  budget_ = instruction_budget;
  CVMT_CHECK(budget_ >= 1);
  has_pending_ = false;
  done_ = false;
  pending_fp_ = nullptr;
  pending_ = nullptr;
  pending_patches_ = nullptr;
  ready_at_ = 0;
  stats_ = ThreadStats{};
}

void ThreadContext::refill(std::uint64_t cycle, MemorySystem& mem,
                           int hw_tid) {
  if (gen_stale_) {
    gen_.reset(std::move(pending_program_), pending_seed_);
    gen_stale_ = false;
  }
  gen_.advance();
  pending_ = &gen_.current_instruction();
  pending_fp_ = &gen_.current_footprint();
  pending_patches_ = &gen_.current_patches();
  has_pending_ = true;
  // Fetch starts once the previous instruction's stalls resolve; an
  // ICache miss then delays issue further.
  const MemAccessResult fetch = mem.fetch(hw_tid, gen_.current_pc());
  if (!fetch.hit) {
    ready_at_ = std::max(ready_at_, cycle) +
                static_cast<std::uint64_t>(fetch.penalty_cycles);
    stats_.icache_stall_cycles +=
        static_cast<std::uint64_t>(fetch.penalty_cycles);
  }
}

void ThreadContext::consume(std::uint64_t cycle, MemorySystem& mem,
                            int hw_tid, const MachineConfig& machine,
                            MissPolicy policy) {
  CVMT_CHECK_MSG(has_pending_ && cycle >= ready_at_,
                 "consume without a ready offer");
  // Execution stalls: taken-branch squash plus DCache misses. Only the
  // patched (memory/branch) ops are timing-relevant, and the precomputed
  // patch list visits exactly those, in op order.
  std::uint64_t stall = 1;
  int dmiss_total = 0;
  int dmiss_max = 0;
  bool taken = false;
  const bool banked = mem.config().dcache_banks > 1;
  std::uint32_t banks_touched = 0;
  int bank_conflicts = 0;
  const auto data_op = [&](std::uint64_t addr) {
    const MemAccessResult r = mem.data_access(hw_tid, addr);
    dmiss_total += r.penalty_cycles;
    dmiss_max = std::max(dmiss_max, r.penalty_cycles);
    if (banked) {
      // Same-packet accesses to one bank serialize: each repeat pays the
      // conflict penalty (the first access per bank is free).
      const std::uint32_t bit = 1u << r.bank;
      if ((banks_touched & bit) != 0) ++bank_conflicts;
      banks_touched |= bit;
    }
  };
  ++stats_.instructions;
  stats_.ops += pending_->op_count();
  if (pending_->empty()) ++stats_.bubbles;
  for (const std::uint8_t idx : *pending_patches_) {
    const Operation& op = pending_->op(idx);
    if (is_memory(op.kind)) {
      data_op(op.addr);
    } else if (op.taken) {  // patch lists hold only memory and branch ops
      taken = true;
    }
  }
  if (bank_conflicts > 0) {
    const int extra =
        bank_conflicts * mem.config().bank_conflict_penalty;
    stall += static_cast<std::uint64_t>(extra);
    stats_.bank_conflict_cycles += static_cast<std::uint64_t>(extra);
  }
  const int dmiss =
      policy == MissPolicy::kSerialized ? dmiss_total : dmiss_max;
  stall += static_cast<std::uint64_t>(dmiss);
  stats_.dcache_stall_cycles += static_cast<std::uint64_t>(dmiss);
  if (taken) {
    ++stats_.taken_branches;
    stall += static_cast<std::uint64_t>(machine.taken_branch_penalty);
    stats_.branch_stall_cycles +=
        static_cast<std::uint64_t>(machine.taken_branch_penalty);
  }
  ready_at_ = cycle + stall;
  has_pending_ = false;
  if (stats_.instructions >= budget_) done_ = true;
}

}  // namespace cvmt
