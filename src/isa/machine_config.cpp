#include "isa/machine_config.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace cvmt {
namespace {

constexpr std::uint32_t width_mask(int w) {
  return (w >= 32) ? ~0u : ((1u << static_cast<unsigned>(w)) - 1u);
}

}  // namespace

void ClusterShape::validate(const std::string& where) const {
  CVMT_REQUIRE(issue_width >= 1 && issue_width <= kMaxIssuePerCluster,
               where + "issue width out of range");
  const std::uint32_t all = width_mask(issue_width);
  CVMT_REQUIRE((mul_slot_mask & ~all) == 0,
               where + "mul slot beyond issue width");
  CVMT_REQUIRE((mem_slot_mask & ~all) == 0,
               where + "mem slot beyond issue width");
  CVMT_REQUIRE((branch_slot_mask & ~all) == 0,
               where + "branch slot beyond issue width");
}

MachineConfig MachineConfig::vex4x4() {
  // Built (and validated) once; the factories sit on hot default paths
  // (every default-constructed SimConfig copies one).
  static const MachineConfig c = [] {
    MachineConfig m;
    m.num_clusters = 4;
    m.issue_per_cluster = 4;
    m.mul_slot_mask = 0b0011;
    m.mem_slot_mask = 0b0100;
    m.branch_slot_mask = 0b1000;
    m.validate();
    return m;
  }();
  return c;
}

MachineConfig MachineConfig::vex4x2() {
  static const MachineConfig c = [] {
    MachineConfig m;
    m.num_clusters = 4;
    m.issue_per_cluster = 2;
    // With two slots per cluster the fixed units share them: slot 0
    // carries the multiplier, slot 1 the LSU and branch unit.
    m.mul_slot_mask = 0b01;
    m.mem_slot_mask = 0b10;
    m.branch_slot_mask = 0b10;
    m.validate();
    return m;
  }();
  return c;
}

MachineConfig MachineConfig::clustered(int num_clusters,
                                       int issue_per_cluster) {
  MachineConfig c;
  c.num_clusters = num_clusters;
  c.issue_per_cluster = issue_per_cluster;
  const int w = issue_per_cluster;
  if (w >= 4) {
    c.mul_slot_mask = 0b0011;
    c.mem_slot_mask = 1u << (w - 2);
    c.branch_slot_mask = 1u << (w - 1);
  } else if (w == 3) {
    c.mul_slot_mask = 0b001;
    c.mem_slot_mask = 0b010;
    c.branch_slot_mask = 0b100;
  } else if (w == 2) {
    c.mul_slot_mask = 0b01;
    c.mem_slot_mask = 0b10;
    c.branch_slot_mask = 0b10;
  } else {
    c.mul_slot_mask = c.mem_slot_mask = c.branch_slot_mask = 0b1;
  }
  c.validate();
  return c;
}

MachineConfig MachineConfig::heterogeneous_of(const ClusterShape* shapes,
                                              int count) {
  MachineConfig c;
  c.heterogeneous = true;
  c.num_clusters = count;
  CVMT_CHECK_MSG(count >= 1 && count <= kMaxClusters,
                 "cluster count out of range");
  for (int i = 0; i < count; ++i)
    c.per_cluster[static_cast<std::size_t>(i)] = shapes[i];
  // Keep the (ignored) flat fields coherent with the widest cluster so
  // accidental flat reads fail loudly in validate() rather than silently.
  c.issue_per_cluster = c.max_issue_per_cluster();
  c.validate();
  return c;
}

int MachineConfig::max_issue_per_cluster() const {
  if (!heterogeneous) return issue_per_cluster;
  int widest = 1;
  for (int c = 0; c < num_clusters; ++c)
    widest = std::max(widest,
                      per_cluster[static_cast<std::size_t>(c)].issue_width);
  return widest;
}

std::string MachineConfig::shape_label() const {
  if (!heterogeneous)
    return std::to_string(num_clusters) + "x" +
           std::to_string(issue_per_cluster);
  std::string label;
  for (int c = 0; c < num_clusters; ++c) {
    if (c) label += '+';
    label += std::to_string(cluster_issue(c));
  }
  return label;
}

std::uint32_t MachineConfig::slots_for(OpKind kind, int c) const {
  std::uint32_t all;
  std::uint32_t mul;
  std::uint32_t mem;
  std::uint32_t branch;
  if (heterogeneous) {
    const ClusterShape& s = per_cluster[static_cast<std::size_t>(c)];
    all = width_mask(s.issue_width);
    mul = s.mul_slot_mask;
    mem = s.mem_slot_mask;
    branch = s.branch_slot_mask;
  } else {
    all = width_mask(issue_per_cluster);
    mul = mul_slot_mask;
    mem = mem_slot_mask;
    branch = branch_slot_mask;
  }
  switch (kind) {
    case OpKind::kAlu: return all;
    case OpKind::kMul: return mul;
    case OpKind::kLoad:
    case OpKind::kStore: return mem;
    case OpKind::kBranch: return branch;
  }
  return 0;
}

int MachineConfig::latency_of(OpKind kind) const {
  switch (kind) {
    case OpKind::kAlu: return alu_latency;
    case OpKind::kMul: return mul_latency;
    case OpKind::kLoad:
    case OpKind::kStore: return mem_latency;
    case OpKind::kBranch: return alu_latency;
  }
  return 1;
}

void MachineConfig::validate() const {
  CVMT_REQUIRE(num_clusters >= 1 && num_clusters <= kMaxClusters,
               "cluster count out of range");
  // A homogeneous machine's flat shape is every cluster's shape. Per-
  // cluster masks may be empty; every capability must exist on at least
  // one cluster of the machine.
  int total = 0;
  std::uint32_t any_mul = 0;
  std::uint32_t any_mem = 0;
  std::uint32_t any_branch = 0;
  for (int c = 0; c < num_clusters; ++c) {
    const ClusterShape s =
        heterogeneous ? per_cluster[static_cast<std::size_t>(c)]
                      : ClusterShape{issue_per_cluster, mul_slot_mask,
                                     mem_slot_mask, branch_slot_mask};
    s.validate(heterogeneous ? "cluster " + std::to_string(c) + ": " : "");
    total += s.issue_width;
    any_mul |= s.mul_slot_mask;
    any_mem |= s.mem_slot_mask;
    any_branch |= s.branch_slot_mask;
  }
  CVMT_REQUIRE(total <= kMaxTotalOps,
               "total issue width " + std::to_string(total) + " exceeds " +
                   std::to_string(kMaxTotalOps));
  CVMT_REQUIRE(any_mul != 0, "machine needs at least one multiplier");
  CVMT_REQUIRE(any_mem != 0, "machine needs at least one LSU");
  CVMT_REQUIRE(any_branch != 0, "machine needs at least one branch unit");
  CVMT_REQUIRE(alu_latency >= 1 && mul_latency >= 1 && mem_latency >= 1,
               "latencies must be positive");
  CVMT_REQUIRE(taken_branch_penalty >= 0, "negative branch penalty");
}

bool operator==(const MachineConfig& a, const MachineConfig& b) {
  if (a.heterogeneous != b.heterogeneous ||
      a.num_clusters != b.num_clusters || a.alu_latency != b.alu_latency ||
      a.mul_latency != b.mul_latency || a.mem_latency != b.mem_latency ||
      a.taken_branch_penalty != b.taken_branch_penalty)
    return false;
  if (a.heterogeneous) {
    for (int c = 0; c < a.num_clusters; ++c)
      if (!(a.per_cluster[static_cast<std::size_t>(c)] ==
            b.per_cluster[static_cast<std::size_t>(c)]))
        return false;
    return true;
  }
  return a.issue_per_cluster == b.issue_per_cluster &&
         a.mul_slot_mask == b.mul_slot_mask &&
         a.mem_slot_mask == b.mem_slot_mask &&
         a.branch_slot_mask == b.branch_slot_mask;
}

}  // namespace cvmt
