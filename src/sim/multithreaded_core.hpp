// The multithreaded clustered VLIW core: per cycle, every resident thread
// offers its next instruction and the merge engine selects the subset that
// issues as a single execution packet.
//
// The cycle loop runs in windows (run_until): cycles where at least one
// thread offers are arbitrated one at a time, but an all-stalled window is
// fast-forwarded in a single jump to the earliest ready_at() among the
// resident threads (bulk-accounting the skipped cycles as idle). The jump
// is bit-identical to stepping: a cycle with no candidates never invokes
// the merge network, so no rotation, histogram or node counter moves on
// the skipped cycles.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/merge_engine.hpp"
#include "sim/thread_context.hpp"

namespace cvmt {

/// Aggregate core counters.
struct CoreStats {
  std::uint64_t cycles = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t total_instructions = 0;
  std::uint64_t idle_cycles = 0;  ///< cycles with no candidate at all

  [[nodiscard]] double ipc() const {
    return cycles ? static_cast<double>(total_ops) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Hot-path policy knobs of the core, defaulting to the fast configuration.
struct CoreOptions {
  StatsLevel stats = StatsLevel::kFull;
  EvalMode eval_mode = EvalMode::kPlan;
  /// Jump over all-stalled windows instead of stepping them. Results are
  /// bit-identical either way; off only for baseline benchmarking.
  bool stall_fast_forward = true;
};

/// Hardware: N thread slots, one merge network, one memory system.
class MultithreadedCore {
 public:
  MultithreadedCore(const MachineConfig& machine, Scheme scheme,
                    PriorityPolicy priority, MemorySystem& mem,
                    MissPolicy miss_policy, CoreOptions options = {});

  /// Construction from a pre-compiled merge plan (shared via the session
  /// layer's CompiledScheme); behaves exactly like the compiling
  /// constructor.
  MultithreadedCore(const MachineConfig& machine, Scheme scheme,
                    std::shared_ptr<const MergePlan> plan,
                    PriorityPolicy priority, MemorySystem& mem,
                    MissPolicy miss_policy, CoreOptions options = {});

  /// Restores the freshly-constructed state under (possibly new) policy
  /// knobs: all slots unbound, core counters zeroed, merge engine reset.
  /// Does NOT touch the memory system (the caller owns it and resets it
  /// separately). Bit-identical to constructing a new core.
  void reset(PriorityPolicy priority, MissPolicy miss_policy,
             CoreOptions options);

  /// Number of hardware thread slots (the scheme's thread count).
  [[nodiscard]] int num_slots() const { return engine_.scheme().num_threads(); }

  /// Binds `thread` (may be nullptr = idle slot) to hardware slot `slot`.
  void set_thread(int slot, ThreadContext* thread);

  [[nodiscard]] ThreadContext* thread(int slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }

  /// Advances one cycle: gather offers, merge-select, issue.
  /// Returns true if any resident thread finished its budget this cycle.
  bool step(std::uint64_t cycle);

  /// Runs cycles [cycle, end), fast-forwarding all-stalled windows when
  /// enabled. Stops early (after the completing cycle) once any resident
  /// thread finishes its budget, setting `any_done`. Returns the first
  /// cycle not executed.
  std::uint64_t run_until(std::uint64_t cycle, std::uint64_t end,
                          bool& any_done);

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const MergeEngine& engine() const { return engine_; }
  [[nodiscard]] MemorySystem& memory() { return mem_; }
  [[nodiscard]] const CoreOptions& options() const { return options_; }

 private:
  MachineConfig machine_;
  MergeEngine engine_;
  MemorySystem& mem_;
  MissPolicy miss_policy_;
  CoreOptions options_;
  std::array<ThreadContext*, kMaxThreads> slots_{};
  CoreStats stats_;
};

}  // namespace cvmt
