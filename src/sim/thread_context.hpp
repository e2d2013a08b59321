// One software thread: trace generator + architectural timing state.
//
// The context survives OS descheduling (paper §5.1 runs a multitasking
// environment with 1M-cycle timeslices): all position, stall and stat
// state lives here, and the core merely points at the contexts currently
// occupying hardware thread slots.
//
// An instruction passes through in one read of the program image: fetch
// (refill) takes the step under the generator's cursor and charges its
// ICache line, and issue (consume) retires it, making each data access
// as the generator draws its address. Nothing is buffered in between.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "isa/machine_config.hpp"
#include "mem/memory_system.hpp"
#include "trace/trace_generator.hpp"

namespace cvmt {

/// How multiple DCache misses inside one issued packet are charged.
enum class MissPolicy : std::uint8_t {
  kSerialized,  ///< each miss blocks in turn (simple blocking LSU, default;
                ///< matches the profile calibration exactly)
  kOverlapped,  ///< misses overlap (per-cluster LSUs with MLP; ablation)
};

/// The stall charges consume() applies, read from the machine, the memory
/// system and the miss policy once per window instead of once per
/// instruction.
struct StallCosts {
  bool banked = false;  ///< the DCache has more than one bank
  int bank_conflict_penalty = 0;
  MissPolicy miss_policy = MissPolicy::kSerialized;
  int taken_branch_penalty = 0;

  [[nodiscard]] static StallCosts of(const MachineConfig& machine,
                                     const MemorySystemConfig& mem,
                                     MissPolicy policy) {
    return {mem.dcache_banks > 1, mem.bank_conflict_penalty, policy,
            machine.taken_branch_penalty};
  }
};

/// Per-thread execution statistics.
struct ThreadStats {
  std::uint64_t instructions = 0;  ///< issued VLIW instructions (w/ bubbles)
  std::uint64_t bubbles = 0;       ///< issued empty instructions
  std::uint64_t ops = 0;           ///< useful operations issued
  std::uint64_t taken_branches = 0;
  std::uint64_t dcache_stall_cycles = 0;
  std::uint64_t icache_stall_cycles = 0;
  std::uint64_t branch_stall_cycles = 0;
  /// Serialization cycles from same-packet accesses colliding on a DCache
  /// bank (always 0 on unbanked machines).
  std::uint64_t bank_conflict_cycles = 0;
};

/// A software thread executing one synthetic program.
class ThreadContext {
 public:
  ThreadContext(std::string name,
                std::shared_ptr<const SyntheticProgram> program,
                std::uint64_t stream_seed,
                std::uint64_t instruction_budget);

  // Not copyable: contexts are referenced by pointer (see OsScheduler),
  // never copied — a copy would fork one software thread's execution.
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  /// Offers this thread's next instruction for merging at `cycle`.
  /// Fetches (and charges ICache penalties) lazily; returns nullptr while
  /// the thread is stalled or has completed its budget. `hw_tid` routes
  /// cache accesses when caches are private. Inline: the overwhelmingly
  /// common case (an instruction already fetched, still stalled or ready)
  /// is two compares; the fetch lives out of line in refill().
  const Footprint* offer(std::uint64_t cycle, MemorySystem& mem,
                         int hw_tid) {
    if (done_) return nullptr;
    if (pending_ == nullptr) refill(cycle, mem, hw_tid);
    return cycle >= ready_at_ ? &pending_->footprint : nullptr;
  }

  /// Issues the previously offered instruction: retires it in the
  /// generator, which draws its data addresses and branch directions,
  /// performs each DCache access as its address is drawn, accounts
  /// statistics and computes the next-issue stall. Returns the
  /// instruction's operation count (0 for a bubble).
  int consume(std::uint64_t cycle, MemorySystem& mem, int hw_tid,
              const StallCosts& costs);

  /// Fetches the instruction under the generator's cursor and charges
  /// its ICache access at `cycle`; draws nothing. Exposed so the cycle
  /// loop can cache (ready_at, footprint) per slot and refill exactly
  /// once per issued instruction instead of re-polling offer() every
  /// cycle; offer() calls it lazily for all other callers.
  /// Precondition: !done() and !has_pending().
  void refill(std::uint64_t cycle, MemorySystem& mem, int hw_tid);

  /// Footprint of the pending instruction (valid while has_pending()).
  [[nodiscard]] const Footprint* pending_footprint() const {
    return &pending_->footprint;
  }

  /// True once `instruction_budget` instructions have issued.
  [[nodiscard]] bool done() const { return done_; }

  /// True while a fetched instruction is waiting to issue (offer() has been
  /// called since the last consume()).
  [[nodiscard]] bool has_pending() const { return pending_ != nullptr; }

  /// First cycle at which the pending instruction can issue. Meaningful
  /// only while has_pending(); the stall fast-forward uses it to jump over
  /// all-stalled windows without stepping them cycle by cycle.
  [[nodiscard]] std::uint64_t ready_at() const { return ready_at_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ThreadStats& stats() const { return stats_; }

 private:
  std::string name_;
  TraceGenerator gen_;
  std::uint64_t budget_;

  bool done_ = false;
  /// The fetched instruction, null from consume() to the next refill():
  /// the step under the generator's cursor (it moves only when consume()
  /// retires it), in the shared immutable program.
  const SyntheticProgram::Step* pending_ = nullptr;
  std::uint64_t ready_at_ = 0;

  ThreadStats stats_;
};

}  // namespace cvmt
