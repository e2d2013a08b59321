#include "isa/machine_config.hpp"

#include <algorithm>
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

ClusterShape ClusterShape::standard(int issue_width) {
  const int w = issue_width;
  if (w >= 4) return {w, 0b0011, 1u << (w - 2), 1u << (w - 1)};
  if (w == 3) return {w, 0b001, 0b010, 0b100};
  // With two slots the fixed units share them: slot 0 carries the
  // multiplier, slot 1 the LSU and branch unit.
  if (w == 2) return {w, 0b01, 0b10, 0b10};
  return {w, 0b1, 0b1, 0b1};
}

MachineConfig MachineConfig::vex4x4() {
  // Built (and validated) once; the factories sit on hot default paths
  // (every default-constructed SimConfig copies one).
  static const MachineConfig c = clustered(4, 4);
  return c;
}

MachineConfig MachineConfig::vex4x2() {
  static const MachineConfig c = clustered(4, 2);
  return c;
}

MachineConfig MachineConfig::clustered(int num_clusters,
                                       int issue_per_cluster) {
  MachineConfig c;
  c.num_clusters = num_clusters;
  c.per_cluster.fill(ClusterShape::standard(issue_per_cluster));
  c.validate();
  return c;
}

MachineConfig MachineConfig::heterogeneous_of(const ClusterShape* shapes,
                                              int count) {
  CVMT_CHECK_MSG(count >= 1 && count <= kMaxClusters,
                 "cluster count out of range");
  MachineConfig c;
  c.num_clusters = count;
  std::copy_n(shapes, count, c.per_cluster.begin());
  c.validate();
  return c;
}

int MachineConfig::max_issue_per_cluster() const {
  int widest = 1;
  for (const ClusterShape& s : clusters())
    widest = std::max(widest, s.issue_width);
  return widest;
}

int MachineConfig::total_issue_width() const {
  int total = 0;
  for (const ClusterShape& s : clusters()) total += s.issue_width;
  return total;
}

bool MachineConfig::uniform() const {
  const std::span<const ClusterShape> shapes = clusters();
  return std::all_of(shapes.begin(), shapes.end(),
                     [&](const ClusterShape& s) { return s == shapes[0]; });
}

ClusterShape MachineConfig::flat_shape() const {
  return uniform() ? per_cluster[0] : ClusterShape{max_issue_per_cluster()};
}

std::string MachineConfig::shape_label() const {
  if (uniform())
    return std::to_string(num_clusters) + "x" +
           std::to_string(per_cluster[0].issue_width);
  std::string label;
  for (const ClusterShape& s : clusters()) {
    if (!label.empty()) label += '+';
    label += std::to_string(s.issue_width);
  }
  return label;
}

std::uint32_t MachineConfig::slots_for(OpKind kind, int c) const {
  const ClusterShape& s = per_cluster[static_cast<std::size_t>(c)];
  switch (kind) {
    case OpKind::kAlu: return width_mask(s.issue_width);
    case OpKind::kMul: return s.mul_slot_mask;
    case OpKind::kLoad:
    case OpKind::kStore: return s.mem_slot_mask;
    case OpKind::kBranch: return s.branch_slot_mask;
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
  // Per-cluster masks may be empty; every capability must exist on at
  // least one cluster of the machine. Errors name the cluster unless every
  // cluster has the same shape.
  const bool flat = uniform();
  int total = 0;
  std::uint32_t any_mul = 0;
  std::uint32_t any_mem = 0;
  std::uint32_t any_branch = 0;
  for (int c = 0; c < num_clusters; ++c) {
    const ClusterShape& s = per_cluster[static_cast<std::size_t>(c)];
    s.validate(flat ? "" : "cluster " + std::to_string(c) + ": ");
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
  const std::span<const ClusterShape> ca = a.clusters();
  const std::span<const ClusterShape> cb = b.clusters();
  return a.num_clusters == b.num_clusters &&
         a.alu_latency == b.alu_latency && a.mul_latency == b.mul_latency &&
         a.mem_latency == b.mem_latency &&
         a.taken_branch_penalty == b.taken_branch_penalty &&
         std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
}

}  // namespace cvmt
