// A VLIW instruction: one long word of parallel operations.
#pragma once

#include <cstdint>
#include <string>

#include "isa/machine_config.hpp"
#include "isa/operation.hpp"
#include "support/inline_vec.hpp"

namespace cvmt {

/// One VLIW instruction (execution packet of a single thread). An empty
/// instruction is a scheduled stall cycle — vertical waste that a
/// multithreaded merge can reclaim.
class Instruction {
 public:
  Instruction() = default;

  /// Adds an operation. Placement legality is checked lazily by validate();
  /// the trace generator always produces valid packets, tests may not.
  void add(const Operation& op) { ops_.push_back(op); }

  [[nodiscard]] std::size_t op_count() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  [[nodiscard]] const Operation& op(std::size_t i) const { return ops_[i]; }
  /// Mutable access, used by the trace generator to patch memory addresses
  /// and branch directions into a body template at emission time.
  [[nodiscard]] Operation& op(std::size_t i) { return ops_[i]; }
  [[nodiscard]] const Operation* begin() const { return ops_.begin(); }
  [[nodiscard]] const Operation* end() const { return ops_.end(); }

  [[nodiscard]] std::uint64_t pc() const { return pc_; }
  void set_pc(std::uint64_t pc) { pc_ = pc; }

  /// Returns the taken branch of the packet, or nullptr. (A valid packet has
  /// at most one branch per cluster; a single-thread packet has at most one
  /// branch overall — the trace generator guarantees this.)
  [[nodiscard]] const Operation* taken_branch() const;

  /// True if any operation is a load or store.
  [[nodiscard]] bool has_memory_op() const;
  /// True if any operation is a branch.
  [[nodiscard]] bool has_branch() const;

  /// Checks structural validity against `config`: placement in range,
  /// capability of the slot, and slot exclusivity within a cluster.
  /// Returns an explanatory message for the first violation, empty if valid.
  [[nodiscard]] std::string validate(const MachineConfig& config) const;

  /// Renders like the paper's Fig 1 rows: "add - ld | ..." (one group per
  /// cluster, '-' for empty slots).
  [[nodiscard]] std::string to_string(const MachineConfig& config) const;

  friend bool operator==(const Instruction& a, const Instruction& b) {
    return a.pc_ == b.pc_ && a.ops_ == b.ops_;
  }

 private:
  InlineVec<Operation, kMaxTotalOps> ops_;
  std::uint64_t pc_ = 0;
};

}  // namespace cvmt
