// Machine description for the clustered VLIW target.
//
// Defaults model the paper's evaluation machine (§5.1): a VEX derivative of
// the HP/ST Lx ST200 family with 4 clusters x 4-issue, 2 multipliers and
// 1 load/store unit per cluster, ALUs in every slot, 2-cycle memory and
// multiply latency, no branch predictor and a 2-cycle taken-branch penalty
// (dedicated merge pipeline stage).
//
// A machine is described cluster by cluster: per_cluster[c] carries
// cluster c's issue width and capability masks. A machine is *uniform*
// when every cluster has cluster 0's shape (every VEX machine is); whether
// it is follows from the shapes and is never stored. The simulator's merge
// checks read only the per-cluster shapes (the SWAR SMT check takes one
// width per cluster). The machine-file layer (isa/machine_file.hpp)
// parses machines from `.machine` config files.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
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

/// Shape of one cluster: its issue width and capability masks (bit i set
/// <=> slot i has the unit). The defaults are the VEX cluster: 2
/// multipliers in the low slots, 1 LSU, 1 branch unit. Capability masks
/// may be zero here (a cluster without a multiplier); validate() only
/// requires each capability to exist somewhere on the machine.
struct ClusterShape {
  int issue_width = 4;
  std::uint32_t mul_slot_mask = 0b0011;
  std::uint32_t mem_slot_mask = 0b0100;
  std::uint32_t branch_slot_mask = 0b1000;

  /// The standard layout of a `issue_width`-wide cluster: ALUs in every
  /// slot, up to two multipliers in the low slots, the LSU and branch
  /// unit in the high slots (they share a slot on narrow clusters). The
  /// 4-wide one is the VEX cluster.
  [[nodiscard]] static ClusterShape standard(int issue_width);

  /// Throws CheckError, its message prefixed by `where`, when the issue
  /// width is out of range or a mask names a slot beyond it. Masks may be
  /// empty.
  void validate(const std::string& where = {}) const;

  friend constexpr bool operator==(const ClusterShape&,
                                   const ClusterShape&) = default;
};

/// Static description of one clustered VLIW machine: cluster c's shape is
/// per_cluster[c] for c < num_clusters (the entries past it are unused).
struct MachineConfig {
  int num_clusters = 4;
  /// Every entry defaults to the VEX cluster.
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

  /// A uniform machine of `num_clusters` standard clusters
  /// (ClusterShape::standard) for shape-sweep ablations.
  [[nodiscard]] static MachineConfig clustered(int num_clusters,
                                               int issue_per_cluster);

  /// A machine from explicit per-cluster shapes (`shapes[0..count)`);
  /// latencies keep their defaults.
  [[nodiscard]] static MachineConfig heterogeneous_of(
      const ClusterShape* shapes, int count);

  /// The shapes of clusters 0..num_clusters, the count clamped to
  /// 0..kMaxClusters so that reading them is safe on any value.
  [[nodiscard]] std::span<const ClusterShape> clusters() const {
    return {per_cluster.data(), static_cast<std::size_t>(std::clamp(
                                    num_clusters, 0, kMaxClusters))};
  }

  /// Issue width of cluster `c`.
  [[nodiscard]] int cluster_issue(int c) const {
    return per_cluster[static_cast<std::size_t>(c)].issue_width;
  }

  /// The widest cluster's issue width. Cost models size their slot-level
  /// circuits off this.
  [[nodiscard]] int max_issue_per_cluster() const;

  [[nodiscard]] int total_issue_width() const;

  /// True when every cluster has cluster 0's shape.
  [[nodiscard]] bool uniform() const;

  /// The shape that the machine key's flat fields write for this machine:
  /// cluster 0's shape when uniform, else the widest cluster's width with
  /// the VEX masks.
  [[nodiscard]] ClusterShape flat_shape() const;

  /// The cluster layout as text: "4x4" (clusters x issue width) when
  /// uniform, else each cluster's issue width joined by '+' ("4+4+2+2").
  [[nodiscard]] std::string shape_label() const;

  /// Mask of slots of cluster `c` able to execute `kind` (ALU: all slots).
  [[nodiscard]] std::uint32_t slots_for(OpKind kind, int c) const;

  /// Latency in cycles of `kind` under this machine.
  [[nodiscard]] int latency_of(OpKind kind) const;

  /// Throws CheckError when structurally invalid (e.g. capability mask
  /// names a slot beyond the cluster's issue width, or the machine lacks
  /// a capability on every cluster). The message names the problem and
  /// carries no source location: a machine file can fail it.
  void validate() const;
};

/// Value equality (used by tests and config plumbing): the cluster count,
/// the shapes of clusters 0..num_clusters and the latencies.
[[nodiscard]] bool operator==(const MachineConfig& a, const MachineConfig& b);

}  // namespace cvmt
