#include "testgen/shrink.hpp"

#include <algorithm>
#include <map>

#include "support/check.hpp"

namespace cvmt {
namespace {

/// Remaps the leaf ports of a pruned tree onto dense 0..N-1, preserving
/// their relative (priority) order.
void renumber_ports(Scheme::Node& node,
                    const std::map<int, int>& remap) {
  if (node.is_leaf()) {
    node.port = remap.at(node.port);
    return;
  }
  for (Scheme::Node& child : node.children) renumber_ports(child, remap);
}

void collect_ports(const Scheme::Node& node, std::vector<int>& ports) {
  if (node.is_leaf()) {
    ports.push_back(node.port);
    return;
  }
  for (const Scheme::Node& child : node.children)
    collect_ports(child, ports);
}

/// All one-step structural reductions of a scheme subtree: replace a block
/// by one of its children (dropping the siblings' threads), or drop one
/// input of a >= 3-input block. Returned trees still carry the original
/// (now sparse) port numbers; the caller renumbers.
std::vector<Scheme::Node> tree_mutations(const Scheme::Node& node) {
  std::vector<Scheme::Node> out;
  if (node.is_leaf()) return out;
  for (const Scheme::Node& child : node.children) out.push_back(child);
  if (node.children.size() >= 3) {
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      Scheme::Node m = node;
      m.children.erase(m.children.begin() +
                       static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(m));
    }
  }
  for (std::size_t j = 0; j < node.children.size(); ++j) {
    for (Scheme::Node& m : tree_mutations(node.children[j])) {
      Scheme::Node copy = node;
      copy.children[j] = std::move(m);
      out.push_back(std::move(copy));
    }
  }
  return out;
}

/// Candidate cases, most aggressive first. Every candidate is
/// well-formed by construction (mutated schemes are re-validated).
std::vector<FuzzCase> candidates(const FuzzCase& c) {
  std::vector<FuzzCase> out;

  // 1. Structural scheme reductions (drop whole subtrees / threads).
  // A case can fail its oracle with an unparseable scheme (construction
  // error); such a case simply has no scheme mutations to offer.
  try {
    const Scheme scheme = c.parse_scheme();
    for (Scheme::Node& m : tree_mutations(scheme.root())) {
      std::vector<int> ports;
      collect_ports(m, ports);
      std::vector<int> sorted = ports;
      std::sort(sorted.begin(), sorted.end());
      std::map<int, int> remap;
      for (std::size_t i = 0; i < sorted.size(); ++i)
        remap[sorted[i]] = static_cast<int>(i);
      renumber_ports(m, remap);
      if (!Scheme::validate(m).empty()) continue;
      FuzzCase cand = c;
      cand.scheme = Scheme::canonical(m);
      out.push_back(std::move(cand));
    }
  } catch (const CheckError&) {
  }

  // 2. Drop one software thread.
  if (c.profiles.size() >= 2) {
    for (std::size_t i = 0; i < c.profiles.size(); ++i) {
      FuzzCase cand = c;
      cand.profiles.erase(cand.profiles.begin() +
                          static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(cand));
    }
  }

  // 3. Shorter traces: smaller budget, shorter timeslice, simpler
  // programs.
  if (c.sim.instruction_budget > 100) {
    FuzzCase cand = c;
    cand.sim.instruction_budget =
        std::max<std::uint64_t>(100, c.sim.instruction_budget / 2);
    out.push_back(std::move(cand));
  }
  if (c.sim.timeslice_cycles > 32) {
    FuzzCase cand = c;
    cand.sim.timeslice_cycles =
        std::max<std::uint64_t>(32, c.sim.timeslice_cycles / 2);
    out.push_back(std::move(cand));
  }
  for (std::size_t i = 0; i < c.profiles.size(); ++i) {
    const BenchmarkProfile& p = c.profiles[i];
    if (p.num_loops > 1) {
      FuzzCase cand = c;
      cand.profiles[i].num_loops = 1;
      out.push_back(std::move(cand));
    }
    if (p.mean_trip_count > 4.0) {
      FuzzCase cand = c;
      cand.profiles[i].mean_trip_count = p.mean_trip_count / 2.0;
      out.push_back(std::move(cand));
    }
    if (p.mean_body_instrs > 4.0) {
      FuzzCase cand = c;
      cand.profiles[i].mean_body_instrs = 4.0;
      out.push_back(std::move(cand));
    }
    if (p.mem_op_frac > 0.0 || p.mul_op_frac > 0.0 ||
        p.mid_branch_frac > 0.0) {
      FuzzCase cand = c;
      cand.profiles[i].mem_op_frac = 0.0;
      cand.profiles[i].mul_op_frac = 0.0;
      cand.profiles[i].mid_branch_frac = 0.0;
      out.push_back(std::move(cand));
    }
  }

  // 4. Simpler machine and memory.
  const int widest = c.sim.machine.max_issue_per_cluster();
  if (!c.sim.machine.uniform()) {
    FuzzCase cand = c;
    const int width =
        std::min(widest, kMaxTotalOps / c.sim.machine.num_clusters);
    cand.sim.machine =
        MachineConfig::clustered(c.sim.machine.num_clusters, width);
    out.push_back(std::move(cand));
  }
  if (c.sim.machine.num_clusters > 1) {
    FuzzCase cand = c;
    cand.sim.machine = MachineConfig::clustered(1, widest);
    out.push_back(std::move(cand));
  }
  if (widest > 2) {
    FuzzCase cand = c;
    cand.sim.machine =
        MachineConfig::clustered(c.sim.machine.num_clusters, 2);
    out.push_back(std::move(cand));
  }
  if (c.sim.mem.has_l2) {
    FuzzCase cand = c;
    cand.sim.mem.has_l2 = false;
    out.push_back(std::move(cand));
  }
  if (c.sim.mem.dcache_banks > 1) {
    FuzzCase cand = c;
    cand.sim.mem.dcache_banks = 1;
    out.push_back(std::move(cand));
  }
  if (!c.sim.mem.perfect) {
    FuzzCase cand = c;
    cand.sim.mem.perfect = true;
    out.push_back(std::move(cand));
  }

  // 5. Default policies.
  if (c.sim.switch_policy != SwitchPolicyKind::kRandomTimeslice) {
    FuzzCase cand = c;
    cand.sim.switch_policy = SwitchPolicyKind::kRandomTimeslice;
    out.push_back(std::move(cand));
  }
  if (c.sim.priority != PriorityPolicy::kRoundRobin) {
    FuzzCase cand = c;
    cand.sim.priority = PriorityPolicy::kRoundRobin;
    out.push_back(std::move(cand));
  }
  if (c.sim.miss_policy != MissPolicy::kSerialized) {
    FuzzCase cand = c;
    cand.sim.miss_policy = MissPolicy::kSerialized;
    out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace

ShrinkResult shrink_case(const FuzzCase& failing,
                         const std::function<bool(const FuzzCase&)>& fails) {
  ShrinkResult r;
  r.minimized = failing;
  ++r.attempts;
  if (!fails(r.minimized)) return r;  // not reproducible: nothing to do

  bool progress = true;
  while (progress && r.attempts < kShrinkMaxAttempts) {
    progress = false;
    for (FuzzCase& cand : candidates(r.minimized)) {
      if (r.attempts >= kShrinkMaxAttempts) break;
      ++r.attempts;
      if (fails(cand)) {
        r.minimized = std::move(cand);
        ++r.accepted;
        progress = true;
        break;  // greedy: restart enumeration from the smaller case
      }
    }
  }
  if (r.accepted > 0 &&
      r.minimized.label.find("+shrunk") == std::string::npos)
    r.minimized.label += "+shrunk";
  return r;
}

}  // namespace cvmt
