// The OS thread-switch policies (OsScheduler::pick decides them).
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
#include <string_view>

namespace cvmt {

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

}  // namespace cvmt
