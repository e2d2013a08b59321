// Machine description for the clustered VLIW target.
//
// Defaults model the paper's evaluation machine (§5.1): a VEX derivative of
// the HP/ST Lx ST200 family with 4 clusters x 4-issue, 2 multipliers and
// 1 load/store unit per cluster, ALUs in every slot, 2-cycle memory and
// multiply latency, no branch predictor and a 2-cycle taken-branch penalty
// (dedicated merge pipeline stage).
//
// Machines are optionally heterogeneous: every cluster may carry its own
// issue width and capability masks (per_cluster[]). The simulator's merge
// checks treat both forms alike (the SWAR SMT check takes one width per
// cluster). The machine-file layer (isa/machine_file.hpp) parses either
// form from `.machine` config files.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "isa/op_kind.hpp"
#include "support/check.hpp"

namespace cvmt {

/// Hard upper bounds used to size inline containers. The paper's machine is
/// 4x4; the ablation benches go up to 8 clusters / 8 threads, and the
/// property-based fuzzer (src/testgen) exercises schemes up to 16 threads.
inline constexpr int kMaxClusters = 8;
inline constexpr int kMaxIssuePerCluster = 8;
inline constexpr int kMaxTotalOps = 32;
inline constexpr int kMaxThreads = 16;

/// Shape of one cluster of a heterogeneous machine: its own issue width
/// and capability masks. Capability masks may be zero here (a cluster
/// without a multiplier is the point of heterogeneity); validate() only
/// requires each capability to exist somewhere on the machine.
struct ClusterShape {
  int issue_width = 4;
  std::uint32_t mul_slot_mask = 0b0011;
  std::uint32_t mem_slot_mask = 0b0100;
  std::uint32_t branch_slot_mask = 0b1000;

  /// Throws CheckError, its message prefixed by `where`, when the issue
  /// width is out of range or a mask names a slot beyond it. Masks may be
  /// empty.
  void validate(const std::string& where = {}) const;

  friend constexpr bool operator==(const ClusterShape&,
                                   const ClusterShape&) = default;
};

/// Static description of one clustered VLIW machine. Homogeneous by
/// default (as in VEX): the flat slot capability masks apply to each
/// cluster. When `heterogeneous` is set, per_cluster[0..num_clusters)
/// carries each cluster's own shape and the flat fields are ignored.
struct MachineConfig {
  int num_clusters = 4;
  int issue_per_cluster = 4;

  /// Bit i set <=> slot i of every cluster has a multiplier. VEX: 2 per
  /// cluster, in the two low slots.
  std::uint32_t mul_slot_mask = 0b0011;
  /// Bit i set <=> slot i can issue loads/stores. VEX: 1 LSU per cluster.
  std::uint32_t mem_slot_mask = 0b0100;
  /// Bit i set <=> slot i can issue branches. One branch unit per cluster.
  std::uint32_t branch_slot_mask = 0b1000;

  /// Heterogeneous clusters: per_cluster[c] describes cluster c and the
  /// flat width/mask fields above are ignored. The per-cluster accessors
  /// below (cluster_issue, slots_for) key off this flag.
  bool heterogeneous = false;
  std::array<ClusterShape, kMaxClusters> per_cluster{};

  /// Operation latencies in cycles (paper: memory and multiply 2, rest 1).
  int alu_latency = 1;
  int mul_latency = 2;
  int mem_latency = 2;

  /// Squash penalty for a taken branch (no predictor, fall-through path
  /// predicted; includes the dedicated thread-merge pipeline stage).
  int taken_branch_penalty = 2;

  /// The paper's 16-issue machine: 4 clusters x 4 issue slots.
  [[nodiscard]] static MachineConfig vex4x4();

  /// The 8-issue machine of the paper's Fig 1 worked example
  /// (4 clusters x 2 issue).
  [[nodiscard]] static MachineConfig vex4x2();

  /// A generic clustered machine for shape-sweep ablations: ALUs in every
  /// slot, up to two multipliers in the low slots, the LSU and branch unit
  /// in the high slots (they share a slot on narrow clusters).
  [[nodiscard]] static MachineConfig clustered(int num_clusters,
                                               int issue_per_cluster);

  /// A heterogeneous machine from explicit per-cluster shapes
  /// (`shapes[0..count)`); latencies keep their defaults.
  [[nodiscard]] static MachineConfig heterogeneous_of(
      const ClusterShape* shapes, int count);

  /// Issue width of cluster `c`.
  [[nodiscard]] int cluster_issue(int c) const {
    return heterogeneous ? per_cluster[static_cast<std::size_t>(c)].issue_width
                         : issue_per_cluster;
  }

  /// The widest cluster's issue width (the homogeneous width when not
  /// heterogeneous). Cost models size their slot-level circuits off this.
  [[nodiscard]] int max_issue_per_cluster() const;

  [[nodiscard]] int total_issue_width() const {
    if (!heterogeneous) return num_clusters * issue_per_cluster;
    int total = 0;
    for (int c = 0; c < num_clusters; ++c)
      total += per_cluster[static_cast<std::size_t>(c)].issue_width;
    return total;
  }

  /// The cluster layout as text: "4x4" (clusters x issue width), or each
  /// cluster's issue width joined by '+' ("4+4+2+2") when heterogeneous.
  [[nodiscard]] std::string shape_label() const;

  /// Mask of slots of cluster `c` able to execute `kind` (ALU: all slots).
  [[nodiscard]] std::uint32_t slots_for(OpKind kind, int c) const;

  /// Homogeneous-machine shorthand for slots_for(kind, c); asserts the
  /// machine is not heterogeneous (per-cluster callers must say which
  /// cluster they mean).
  [[nodiscard]] std::uint32_t slots_for(OpKind kind) const {
    CVMT_DCHECK(!heterogeneous);
    return slots_for(kind, 0);
  }

  /// Latency in cycles of `kind` under this machine.
  [[nodiscard]] int latency_of(OpKind kind) const;

  /// Throws CheckError when structurally invalid (e.g. capability mask
  /// names a slot beyond the cluster's issue width, or a heterogeneous
  /// machine lacks a capability on every cluster). The message names the
  /// problem and carries no source location: a machine file can fail it.
  void validate() const;
};

/// Value equality (used by tests and config plumbing). Heterogeneous
/// machines compare their active per_cluster prefix; homogeneous machines
/// compare the flat fields.
[[nodiscard]] bool operator==(const MachineConfig& a, const MachineConfig& b);

}  // namespace cvmt
