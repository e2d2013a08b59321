// Resource footprints and the SMT / CSMT merge-compatibility predicates.
//
// A footprint is the sufficient statistic of an instruction (or an already
// accumulated execution packet) for both merge checks of the paper (§2):
//
//   * CSMT merges two packets iff their *cluster* footprints are disjoint.
//   * SMT merges two packets iff, in every cluster, fixed-slot operations do
//     not collide slot-wise and the combined operation count fits that
//     cluster's issue width (ALU operations can be rerouted to any free
//     slot).
//
// Both checks are SWAR ("SIMD within a register"): one word holds four
// clusters, so a check is a few ALU ops whatever the machine, and the SMT
// check adds one issue width per cluster, so every machine takes the same
// path whether or not its clusters share one shape. Packets always merge
// in their entirety (no partial issue) — VLIW semantics forbid splitting an
// instruction.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "isa/instruction.hpp"
#include "isa/machine_config.hpp"
#include "support/check.hpp"

namespace cvmt {

/// Per-cluster resource usage of a packet.
struct ClusterUse {
  std::uint8_t fixed_mask = 0;  ///< slots occupied by non-reroutable ops
  std::uint8_t op_count = 0;    ///< total operations placed in the cluster

  friend constexpr bool operator==(const ClusterUse&,
                                   const ClusterUse&) = default;
};

/// Resource footprint of an instruction or merged execution packet.
class Footprint {
 public:
  Footprint() = default;

  /// Computes the footprint of `instr` under `config`. The instruction must
  /// be valid (placement in range); enforced with debug checks.
  [[nodiscard]] static Footprint of(const Instruction& instr,
                                    const MachineConfig& config);

  /// Bit c set <=> cluster c holds at least one operation.
  [[nodiscard]] std::uint32_t cluster_mask() const { return cluster_mask_; }

  /// Usage of cluster `c`, unpacked from its lane.
  [[nodiscard]] ClusterUse cluster(int c) const {
    const std::uint64_t lane =
        lanes_[static_cast<std::size_t>(c) / 4] >> lane_shift(c);
    return {static_cast<std::uint8_t>(lane),
            static_cast<std::uint8_t>(lane >> 8)};
  }

  [[nodiscard]] int total_ops() const { return total_ops_; }
  [[nodiscard]] bool empty() const { return cluster_mask_ == 0; }

  /// CSMT check: cluster-level disjointness.
  [[nodiscard]] static bool csmt_compatible(const Footprint& a,
                                            const Footprint& b) {
    return (a.cluster_mask_ & b.cluster_mask_) == 0;
  }

  /// SMT check: per-cluster fixed-slot disjointness + issue-width fit.
  /// Implemented as byte-lane SWAR over the packed ClusterUse lanes (all
  /// clusters checked at once, each against its own width; unused
  /// clusters are vacuously compatible, so the result equals the
  /// per-shared-cluster walk smt_compatible_het on every machine).
  [[nodiscard]] static bool smt_compatible(const Footprint& a,
                                           const Footprint& b,
                                           const MachineConfig& config);

  /// The issue widths of a machine in the form smt_fits() adds to the
  /// count lanes: cluster c's count byte holds 127 - (its issue width),
  /// so sum + width has bit 7 set iff sum exceeds the width. Lanes past
  /// the last cluster take width 0; their counts are always 0.
  using SmtWidth = std::array<std::uint64_t, kMaxClusters / 4>;
  [[nodiscard]] static SmtWidth smt_width(const MachineConfig& config);

  /// smt_compatible() split so the per-machine part is computed once:
  /// `width` is smt_width(config). Hot: called for every SMT merge
  /// attempt of every simulated cycle.
  [[nodiscard]] static bool smt_fits(const Footprint& a, const Footprint& b,
                                     const SmtWidth& width);

  /// In-place union (SWAR: OR the fixed-mask lanes, add the count lanes).
  /// Caller must have established compatibility under the merge kind in
  /// use; checked in debug builds for the SMT (weaker) predicate.
  void merge_with(const Footprint& b, const MachineConfig& config);

  friend bool operator==(const Footprint& a, const Footprint& b) {
    return a.cluster_mask_ == b.cluster_mask_ && a.lanes_ == b.lanes_ &&
           a.total_ops_ == b.total_ops_;
  }

 private:
  /// Four clusters per 64-bit lane, 16 bits each: the fixed mask in the
  /// low byte, the op count in the high byte — so the even bytes of a
  /// lane are fixed masks and the odd bytes op counts.
  using Lanes = std::array<std::uint64_t, kMaxClusters / 4>;
  static constexpr std::uint64_t kFixedLanes = 0x00FF00FF00FF00FFULL;
  static constexpr std::uint64_t kCountLanes = 0xFF00FF00FF00FF00ULL;
  /// 0x80 bit of every count lane (overflow detector of the SWAR compare).
  static constexpr std::uint64_t kCountHighBits = 0x8000800080008000ULL;

  [[nodiscard]] static unsigned lane_shift(int c) {
    return 16u * (static_cast<unsigned>(c) % 4u);
  }

  Lanes lanes_{};
  std::uint32_t cluster_mask_ = 0;
  int total_ops_ = 0;
};

static_assert(kMaxClusters % 4 == 0,
              "SWAR predicates pack four 16-bit clusters per lane");

/// The SMT check as a walk over the clusters both packets use, one
/// cluster at a time: the reference the SWAR form is proved against
/// (merge_exhaustive_test). The simulator never calls it.
[[nodiscard]] bool smt_compatible_het(const Footprint& a, const Footprint& b,
                                      const MachineConfig& config);

// Forced inline: both SWAR bodies are a handful of ALU ops on two
// cache-resident 16-byte arrays, called once per merge attempt of every
// simulated cycle — the call/spill overhead of an outlined copy is
// comparable to the work itself.
[[gnu::always_inline]] inline bool Footprint::smt_compatible(
    const Footprint& a, const Footprint& b, const MachineConfig& config) {
  return smt_fits(a, b, smt_width(config));
}

[[gnu::always_inline]] inline bool Footprint::smt_fits(
    const Footprint& a, const Footprint& b, const SmtWidth& width) {
  const Lanes& la = a.lanes_;
  const Lanes& lb = b.lanes_;
  // Counts are at most 2 * issue width <= 16, so lanes never carry.
  for (std::size_t i = 0; i < la.size(); ++i) {
    if ((la[i] & lb[i] & kFixedLanes) != 0) return false;  // slot collision
    const std::uint64_t sums =
        (la[i] & kCountLanes) + (lb[i] & kCountLanes);
    if (((sums + width[i]) & kCountHighBits) != 0) return false;  // overflow
  }
  return true;
}

[[gnu::always_inline]] inline void Footprint::merge_with(
    const Footprint& b, const MachineConfig& config) {
  CVMT_DCHECK(smt_compatible(*this, b, config));
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    lanes_[i] = ((lanes_[i] & kCountLanes) + (b.lanes_[i] & kCountLanes)) |
                ((lanes_[i] | b.lanes_[i]) & kFixedLanes);
  cluster_mask_ |= b.cluster_mask_;
  total_ops_ += b.total_ops_;
}

/// Materialises the SMT-merged execution packet: fixed ops keep their slots,
/// ALU ops of both packets are routed to free slots of their cluster
/// (packet `a` keeps its placement where possible, `b` is rerouted — mirrors
/// the routing block of Fig 2). Requires smt_compatible(a, b).
[[nodiscard]] Instruction route_merge(const Instruction& a,
                                      const Instruction& b,
                                      const MachineConfig& config);

}  // namespace cvmt
