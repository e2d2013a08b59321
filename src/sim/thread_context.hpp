// One software thread: trace generator + architectural timing state.
//
// The context survives OS descheduling (paper §5.1 runs a multitasking
// environment with 1M-cycle timeslices): all position, stall and stat
// state lives here, and the core merely points at the contexts currently
// occupying hardware thread slots.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

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

  // Not copyable: the pending-instruction pointers alias this object's
  // own generator scratch, so a copy would silently track the source's
  // mutable state (and dangle past its lifetime). Contexts are shared by
  // pointer (see OsScheduler), never by value.
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  /// Rebinds this context to a fresh execution, bit-identical to
  /// constructing a new ThreadContext with the same arguments but reusing
  /// the string/cursor allocations. The session layer recycles contexts
  /// across runs on this guarantee.
  void reset(std::string_view name,
             std::shared_ptr<const SyntheticProgram> program,
             std::uint64_t stream_seed, std::uint64_t instruction_budget);

  /// Offers this thread's next instruction for merging at `cycle`.
  /// Fetches (and charges ICache penalties) lazily; returns nullptr while
  /// the thread is stalled or has completed its budget. `hw_tid` routes
  /// cache accesses when caches are private. Inline: the overwhelmingly
  /// common case (an instruction already fetched, still stalled or ready)
  /// is two compares; the fetch lives out of line in refill().
  const Footprint* offer(std::uint64_t cycle, MemorySystem& mem,
                         int hw_tid) {
    if (done_) return nullptr;
    if (!has_pending_) refill(cycle, mem, hw_tid);
    return cycle >= ready_at_ ? pending_fp_ : nullptr;
  }

  /// Issues the previously offered instruction: accounts statistics,
  /// performs DCache accesses and computes the next-issue stall.
  void consume(std::uint64_t cycle, MemorySystem& mem, int hw_tid,
               const MachineConfig& machine, MissPolicy policy);

  /// Generates the next instruction and charges the ICache fetch at
  /// `cycle`. Exposed so the cycle loop can cache (ready_at, footprint)
  /// per slot and refill exactly once per issued instruction instead of
  /// re-polling offer() every cycle; offer() calls it lazily for all
  /// other callers. Precondition: !done() and !has_pending().
  void refill(std::uint64_t cycle, MemorySystem& mem, int hw_tid);

  /// Footprint of the pending instruction (valid while has_pending()).
  [[nodiscard]] const Footprint* pending_footprint() const {
    return pending_fp_;
  }

  /// True once `instruction_budget` instructions have issued.
  [[nodiscard]] bool done() const { return done_; }

  /// True while a fetched instruction is waiting to issue (offer() has been
  /// called since the last consume()).
  [[nodiscard]] bool has_pending() const { return has_pending_; }

  /// First cycle at which the pending instruction can issue. Meaningful
  /// only while has_pending(); the stall fast-forward uses it to jump over
  /// all-stalled windows without stepping them cycle by cycle.
  [[nodiscard]] std::uint64_t ready_at() const { return ready_at_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ThreadStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

 private:
  std::string name_;
  TraceGenerator gen_;
  std::uint64_t budget_;

  /// Deferred generator rebind: reset() only records the target stream
  /// here and refill() arms the generator on first use, so a context
  /// that is reset but never fetches (a thread the run never schedules)
  /// skips the stream-start work (RNG seeding, loop setup) entirely —
  /// bit-identical either way, the stream is a pure function of
  /// (program, seed).
  std::shared_ptr<const SyntheticProgram> pending_program_;
  std::uint64_t pending_seed_ = 0;
  bool gen_stale_ = false;

  bool has_pending_ = false;
  bool done_ = false;
  /// Pending instruction state: pointers into our own generator (its
  /// scratch stays untouched between refill() and consume()) and into the
  /// shared immutable program (footprint, patch list).
  const Footprint* pending_fp_ = nullptr;
  const Instruction* pending_ = nullptr;
  const SyntheticProgram::PatchList* pending_patches_ = nullptr;
  std::uint64_t ready_at_ = 0;

  ThreadStats stats_;
};

}  // namespace cvmt
