#include "isa/instruction.hpp"

#include <sstream>

namespace cvmt {

const Operation* Instruction::taken_branch() const {
  for (const Operation& op : ops_)
    if (op.kind == OpKind::kBranch && op.taken) return &op;
  return nullptr;
}

bool Instruction::has_memory_op() const {
  for (const Operation& op : ops_)
    if (is_memory(op.kind)) return true;
  return false;
}

bool Instruction::has_branch() const {
  for (const Operation& op : ops_)
    if (op.kind == OpKind::kBranch) return true;
  return false;
}

std::string Instruction::validate(const MachineConfig& config) const {
  std::uint64_t used[kMaxClusters] = {};  // slot bitmask per cluster
  for (const Operation& op : ops_) {
    if (op.cluster >= config.num_clusters)
      return "cluster index out of range";
    if (op.slot >= config.cluster_issue(op.cluster))
      return "slot index out of range";
    const std::uint32_t capable = config.slots_for(op.kind, op.cluster);
    if ((capable & (1u << op.slot)) == 0) {
      std::ostringstream os;
      os << cvmt::to_string(op.kind) << " not executable in slot "
         << static_cast<int>(op.slot);
      return os.str();
    }
    const std::uint64_t bit = 1ull << op.slot;
    if (used[op.cluster] & bit) {
      std::ostringstream os;
      os << "slot " << static_cast<int>(op.slot) << " of cluster "
         << static_cast<int>(op.cluster) << " used twice";
      return os.str();
    }
    used[op.cluster] |= bit;
  }
  return {};
}

std::string Instruction::to_string(const MachineConfig& config) const {
  // Lay ops out on a cluster x slot grid, then print Fig-1 style.
  const Operation* grid[kMaxClusters][kMaxIssuePerCluster] = {};
  for (const Operation& op : ops_) {
    if (op.cluster < config.num_clusters &&
        op.slot < config.cluster_issue(op.cluster))
      grid[op.cluster][op.slot] = &op;
  }
  std::ostringstream os;
  for (int c = 0; c < config.num_clusters; ++c) {
    if (c) os << " | ";
    for (int s = 0; s < config.cluster_issue(c); ++s) {
      if (s) os << ' ';
      if (const Operation* op = grid[c][s])
        os << cvmt::to_string(op->kind);
      else
        os << '-';
    }
  }
  return os.str();
}

}  // namespace cvmt
