// Machine description files: a complete machine — cluster topology,
// per-cluster slot capabilities, latencies, cache hierarchy and thread-
// switch policy — as data, not code.
//
// The format is simtrax-style `KEY value...` lines (one setting per line,
// `#` starts a comment). Every key is optional and defaults to the paper's
// vex4x4 evaluation machine, so a file only states its deltas; unknown or
// duplicate keys are hard errors with line numbers. The flat
// `issue`/`*_slots` keys set the shape of every cluster; a file may
// instead give one `cluster` row per cluster (the two forms do not mix),
// and rows that all have one shape describe the same machine as the flat
// keys. serialize_machine() emits a canonical form (flat keys for a
// uniform machine, rows otherwise) that parses back to a value-equal
// description (round-trip pinned by tests), and the built-in
// machines are exactly the parsed equivalents of the files under
// examples/machines/ — that is the bit-identity contract of DESIGN.md §9.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "isa/machine_config.hpp"
#include "mem/memory_system.hpp"
#include "sim/switch_policy.hpp"

namespace cvmt {

/// Everything a `.machine` file describes.
struct MachineDescription {
  std::string name = "vex4x4";
  MachineConfig machine = MachineConfig::vex4x4();
  MemorySystemConfig mem;
  SwitchPolicyKind switch_policy = SwitchPolicyKind::kRandomTimeslice;

  [[nodiscard]] friend bool operator==(const MachineDescription&,
                                       const MachineDescription&) = default;
};

/// Parses a machine description from file text. Throws CheckError with a
/// line-numbered message on syntax errors, unknown/duplicate keys, or a
/// description that fails validate().
[[nodiscard]] MachineDescription parse_machine_file(std::string_view text);

/// Reads and parses `path`. Throws CheckError if the file is unreadable.
[[nodiscard]] MachineDescription load_machine_file(const std::string& path);

/// Canonical file form of `desc`; parse_machine_file(serialize_machine(d))
/// is value-equal to `d`.
[[nodiscard]] std::string serialize_machine(const MachineDescription& desc);

/// Names of the built-in machines, in listing order.
[[nodiscard]] std::vector<std::string> builtin_machine_names();

/// The built-in machine called `name`, or nullptr-equivalent: returns
/// false and leaves `out` untouched when the name is unknown.
[[nodiscard]] bool find_builtin_machine(std::string_view name,
                                        MachineDescription& out);

/// Resolves a --machine spec: a built-in machine name, or else a path to
/// a `.machine` file. Throws CheckError when the spec is neither.
[[nodiscard]] MachineDescription resolve_machine(const std::string& spec);

}  // namespace cvmt
