#include "isa/footprint.hpp"

#include <bit>

namespace cvmt {

Footprint Footprint::of(const Instruction& instr,
                        const MachineConfig& config) {
  Footprint fp;
  for (const Operation& op : instr) {
    CVMT_DCHECK(op.cluster < config.num_clusters);
    CVMT_DCHECK(op.slot < config.cluster_issue(op.cluster));
    std::uint64_t& lane = fp.lanes_[op.cluster / 4];
    const unsigned shift = lane_shift(op.cluster);
    if (is_fixed_slot(op.kind)) {
      const std::uint64_t bit = std::uint64_t{1} << (op.slot + shift);
      CVMT_DCHECK((lane & bit) == 0);
      lane |= bit;
    }
    lane += std::uint64_t{1} << (shift + 8);  // op count byte
    CVMT_DCHECK(fp.cluster(op.cluster).op_count <=
                config.cluster_issue(op.cluster));
    fp.cluster_mask_ |= 1u << op.cluster;
    ++fp.total_ops_;
  }
  return fp;
}

Footprint::SmtWidth Footprint::smt_width(const MachineConfig& config) {
  SmtWidth width{};
  for (int c = 0; c < kMaxClusters; ++c) {
    const int issue = c < config.num_clusters ? config.cluster_issue(c) : 0;
    width[static_cast<std::size_t>(c) / 4] |=
        (127ull - static_cast<std::uint64_t>(issue)) << (lane_shift(c) + 8);
  }
  return width;
}

bool smt_compatible_het(const Footprint& a, const Footprint& b,
                        const MachineConfig& config) {
  // Only clusters used by both packets can conflict; walk their overlap.
  std::uint32_t shared = a.cluster_mask() & b.cluster_mask();
  while (shared != 0) {
    const int c = std::countr_zero(shared);
    shared &= shared - 1;
    const ClusterUse ua = a.cluster(c);
    const ClusterUse ub = b.cluster(c);
    if ((ua.fixed_mask & ub.fixed_mask) != 0) return false;
    if (ua.op_count + ub.op_count > config.cluster_issue(c)) return false;
  }
  return true;
}

Instruction route_merge(const Instruction& a, const Instruction& b,
                        const MachineConfig& config) {
  const Footprint fa = Footprint::of(a, config);
  const Footprint fb = Footprint::of(b, config);
  CVMT_CHECK_MSG(Footprint::smt_compatible(fa, fb, config),
                 "route_merge requires SMT-compatible packets");

  Instruction merged;
  merged.set_pc(a.pc());
  std::uint32_t occupied[kMaxClusters] = {};

  // Pass 1: fixed-slot ops of both packets keep their compiler-assigned
  // slots (they cannot be rerouted).
  for (const Instruction* src : {&a, &b}) {
    for (const Operation& op : *src) {
      if (!is_fixed_slot(op.kind)) continue;
      occupied[op.cluster] |= 1u << op.slot;
      merged.add(op);
    }
  }
  // Pass 2: ALU ops. Packet a's ops prefer their original slot; any
  // displaced op takes the lowest free slot of its cluster.
  for (const Instruction* src : {&a, &b}) {
    for (const Operation& op : *src) {
      if (is_fixed_slot(op.kind)) continue;
      std::uint32_t& occ = occupied[op.cluster];
      Operation placed = op;
      if ((occ & (1u << op.slot)) != 0) {
        const std::uint32_t all =
            (1u << static_cast<unsigned>(config.cluster_issue(op.cluster))) -
            1u;
        const std::uint32_t free = all & ~occ;
        CVMT_CHECK_MSG(free != 0, "routing overflow despite compatibility");
        placed.slot = static_cast<std::uint8_t>(std::countr_zero(free));
      }
      occ |= 1u << placed.slot;
      merged.add(placed);
    }
  }
  return merged;
}

}  // namespace cvmt
