// Multitasking environment of the paper's §5.1: the hardware thread count
// is exposed as virtual CPUs; the OS schedules that many software threads
// per timeslice, picking replacements by its SwitchPolicyKind (default:
// the paper's random replacement). The run ends when any thread completes
// its instruction budget.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/multithreaded_core.hpp"
#include "sim/switch_policy.hpp"
#include "support/rng.hpp"

namespace cvmt {

/// OS-level run summary.
struct OsRunStats {
  std::uint64_t context_switches = 0;
  std::uint64_t timeslices = 0;
};

/// Timeslice scheduler over a pool of software threads.
class OsScheduler {
 public:
  /// `threads` is the workload pool; the caller owns the contexts, keeps
  /// them alive while the scheduler runs and reads their results
  /// afterwards. `timeslice` is in cycles. `policy` picks the resident set
  /// at each slice boundary; `seed` feeds the random policy's RNG.
  OsScheduler(std::vector<ThreadContext*> threads, std::uint64_t timeslice,
              std::uint64_t seed,
              SwitchPolicyKind policy = SwitchPolicyKind::kRandomTimeslice);

  /// Runs `core` until any thread finishes its budget or `max_cycles`
  /// elapse. Returns the number of cycles executed.
  std::uint64_t run(MultithreadedCore& core, std::uint64_t max_cycles);

  [[nodiscard]] const OsRunStats& stats() const { return stats_; }

 private:
  /// Applies pick()'s choice for the slice starting at `cycle` onto the
  /// core's slots, counting context switches.
  void reschedule(MultithreadedCore& core, std::uint64_t cycle);

  /// The policy's decision: fills next_ (one entry per hardware slot,
  /// prefilled with nullptr) with the threads to run for the coming slice.
  void pick(const MultithreadedCore& core, std::uint64_t cycle);

  /// Poststall's round-robin claim: the first thread from the cursor on
  /// that is runnable, not yet placed this pick and, with `skip_stalled`,
  /// not stalled at `cycle`. Marks it placed and moves the cursor past it.
  ThreadContext* claim_next(std::uint64_t cycle, bool skip_stalled);

  std::vector<ThreadContext*> pool_;  // the workload, owned by the caller
  std::uint64_t timeslice_;
  SwitchPolicyKind policy_;
  Xoshiro256 rng_;          // kRandomTimeslice's draws
  std::size_t cursor_ = 0;  // kPrestall and kPoststall's round-robin point
  std::vector<ThreadContext*> runnable_;  // pick scratch
  std::vector<bool> used_;                // poststall scratch, per pool_ entry
  std::vector<ThreadContext*> next_;      // reschedule scratch
  OsRunStats stats_;
};

}  // namespace cvmt
