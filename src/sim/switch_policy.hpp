// Pluggable thread-switch policies for the OS scheduler.
//
// The paper's multitasking environment (§5.1) replaces descheduled threads
// with randomly picked runnable ones at every timeslice expiry; that is the
// kRandomTimeslice policy and the default everywhere. The prestall /
// poststall family follows simtrax's ThreadProcessor scheduling schemes,
// transplanted to OS-timeslice granularity: prestall rotates the resident
// set round-robin every slice (switch before stalls can bite), poststall
// keeps residents until they actually stall and only replaces the stalled
// ones. Policies are selected per machine from `.machine` files
// (isa/machine_file.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sim/thread_context.hpp"

namespace cvmt {

class MultithreadedCore;

enum class SwitchPolicyKind : std::uint8_t {
  kRandomTimeslice,  ///< paper §5.1: random replacement each slice (default)
  kPrestall,         ///< round-robin rotation each slice (simtrax PRESTALL)
  kPoststall,        ///< replace only stalled residents (simtrax POSTSTALL)
};

[[nodiscard]] const char* to_string(SwitchPolicyKind kind);

/// Parses "random" / "prestall" / "poststall". Returns false (leaving `out`
/// untouched) on unknown names.
[[nodiscard]] bool switch_policy_from_string(std::string_view name,
                                             SwitchPolicyKind& out);

/// The thread-switch decision, invoked at every timeslice boundary: fill
/// `next[0..next.size())` (one entry per hardware thread slot, prefilled
/// with nullptr) with the software threads to run for the coming slice.
/// The OsScheduler applies the assignment and keeps the switch statistics.
class SwitchPolicy {
 public:
  virtual ~SwitchPolicy() = default;

  virtual void pick(std::span<ThreadContext* const> pool,
                    const MultithreadedCore& core, std::uint64_t cycle,
                    std::vector<ThreadContext*>& next) = 0;
};

/// Factory for the built-in policies. `seed` feeds kRandomTimeslice's RNG
/// (the deterministic policies ignore it). The returned policy carries all
/// mutable decision state, so one policy instance serves one run.
[[nodiscard]] std::unique_ptr<SwitchPolicy> make_switch_policy(
    SwitchPolicyKind kind, std::uint64_t seed);

}  // namespace cvmt
