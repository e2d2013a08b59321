#include "sim/switch_policy.hpp"

namespace cvmt {

const char* to_string(SwitchPolicyKind kind) {
  switch (kind) {
    case SwitchPolicyKind::kRandomTimeslice: return "random";
    case SwitchPolicyKind::kPrestall: return "prestall";
    case SwitchPolicyKind::kPoststall: return "poststall";
  }
  return "?";
}

bool switch_policy_from_string(std::string_view name,
                               SwitchPolicyKind& out) {
  if (name == "random") {
    out = SwitchPolicyKind::kRandomTimeslice;
  } else if (name == "prestall") {
    out = SwitchPolicyKind::kPrestall;
  } else if (name == "poststall") {
    out = SwitchPolicyKind::kPoststall;
  } else {
    return false;
  }
  return true;
}

}  // namespace cvmt
