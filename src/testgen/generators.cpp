#include "testgen/generators.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "support/check.hpp"

namespace cvmt {
namespace {

/// Fisher-Yates shuffle driven by the generator's own stream (std::shuffle
/// is not reproducible across standard libraries).
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

double uniform(Xoshiro256& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_double();
}

std::uint64_t uniform_u64(Xoshiro256& rng, std::uint64_t lo,
                          std::uint64_t hi) {
  return lo + rng.next_below(hi - lo + 1);
}

Scheme::Node leaf_node(int port) {
  Scheme::Node n;
  n.port = port;
  return n;
}

}  // namespace

// ------------------------------------------------------------- SchemeGen

SchemeGen::SchemeGen(std::uint64_t seed) : rng_(seed) {}

Scheme::Node SchemeGen::random_tree(std::vector<int> ports) {
  if (ports.size() == 1) return leaf_node(ports[0]);

  const auto size = ports.size();
  // Flat wide blocks (arity == size) stay common: they are the paper's
  // parallel-CSMT / IMT shapes and the cheapest to reason about.
  std::size_t arity;
  if (size == 2 || rng_.next_bool(0.35)) {
    arity = size;
  } else {
    arity = 2 + rng_.next_below(std::min<std::size_t>(size, 4) - 1);
  }

  // Partition the ports into `arity` non-empty consecutive groups of the
  // (already shuffled) list: choose arity-1 distinct cut points.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < size; ++i) cuts.push_back(i);
  shuffle(cuts, rng_);
  cuts.resize(arity - 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(size);

  Scheme::Node block;
  block.port = -1;
  const double kind_dice = rng_.next_double();
  block.kind = kind_dice < 0.40
                   ? MergeKind::kCsmt
                   : (kind_dice < 0.78 ? MergeKind::kSmt
                                       : MergeKind::kSelect);
  block.parallel =
      block.kind == MergeKind::kCsmt && arity >= 2 && rng_.next_bool(0.4);
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    block.children.push_back(random_tree(
        std::vector<int>(ports.begin() + static_cast<std::ptrdiff_t>(begin),
                         ports.begin() + static_cast<std::ptrdiff_t>(end))));
    begin = end;
  }
  return block;
}

Scheme SchemeGen::next() {
  // Weighted thread count: the paper's 2..8 dominates, the 9..kMaxThreads
  // tail and the degenerate single thread stay represented.
  const std::uint64_t dice = rng_.next_below(100);
  int n;
  if (dice < 5) {
    n = 1;
  } else if (dice < 55) {
    n = static_cast<int>(uniform_u64(rng_, 2, 4));
  } else if (dice < 85) {
    n = static_cast<int>(uniform_u64(rng_, 5, 8));
  } else {
    n = static_cast<int>(
        uniform_u64(rng_, 9, static_cast<std::uint64_t>(kMaxThreads)));
  }
  return next(n);
}

Scheme SchemeGen::next(int num_threads) {
  CVMT_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  if (num_threads == 1) return Scheme::single_thread();

  // One in five schemes is one of the paper's pure shapes.
  if (rng_.next_bool(0.2)) {
    switch (rng_.next_below(3)) {
      case 0: return Scheme::parallel_csmt(num_threads);
      case 1: return Scheme::imt(num_threads);
      default: {
        std::vector<MergeKind> levels;
        for (int i = 1; i < num_threads; ++i)
          levels.push_back(rng_.next_bool(0.5) ? MergeKind::kSmt
                                               : MergeKind::kCsmt);
        return Scheme::cascade(levels);
      }
    }
  }

  std::vector<int> ports;
  for (int p = 0; p < num_threads; ++p) ports.push_back(p);
  shuffle(ports, rng_);
  Scheme::Node root = random_tree(std::move(ports));
  const std::string err = Scheme::validate(root);
  CVMT_CHECK_MSG(err.empty(), "SchemeGen produced a malformed tree: " + err);
  std::string name = Scheme::canonical(root);
  return Scheme(std::move(name), std::move(root));
}

// ----------------------------------------------------------- WorkloadGen

WorkloadGen::WorkloadGen(std::uint64_t seed) : rng_(seed) {}

BenchmarkProfile WorkloadGen::next(const std::string& name) {
  BenchmarkProfile p;
  p.name = name;
  const std::uint64_t ilp = rng_.next_below(3);
  p.ilp = ilp == 0 ? IlpDegree::kLow
                   : (ilp == 1 ? IlpDegree::kMedium : IlpDegree::kHigh);

  p.num_loops = static_cast<int>(uniform_u64(rng_, 1, 6));
  p.mean_body_instrs = uniform(rng_, 3.0, 12.0);
  p.mean_trip_count = uniform(rng_, 2.0, 40.0);
  p.mean_ops_per_instr = uniform(rng_, 1.0, 3.2);
  p.mem_op_frac = uniform(rng_, 0.05, 0.45);
  p.store_frac = uniform(rng_, 0.0, 0.5);
  p.mul_op_frac = uniform(rng_, 0.0, 0.3);
  p.mid_branch_frac = uniform(rng_, 0.0, 0.2);
  p.mid_branch_taken = uniform(rng_, 0.0, 0.6);
  p.ops_per_cluster_target = uniform(rng_, 1.5, 4.0);
  p.hot_bytes = std::uint64_t{1} << uniform_u64(rng_, 8, 15);
  p.hot_stride = std::uint64_t{4} << uniform_u64(rng_, 0, 4);
  p.assumed_miss_penalty = static_cast<int>(uniform_u64(rng_, 5, 40));
  // 8 or 16 code bytes per instruction keeps the largest body (real
  // instructions + IPCp bubbles) inside the builder's 4KB code region.
  p.code_bytes_per_instr = rng_.next_bool(0.5) ? 8 : 16;
  // IPCp only inserts bubbles when low; >= 0.9 bounds the bubble count.
  p.target_ipc_perfect = uniform(rng_, 0.9, 3.5);
  p.target_ipc_real = p.target_ipc_perfect * uniform(rng_, 0.45, 1.0);
  p.seed = rng_.next();
  p.validate();
  return p;
}

// ------------------------------------------------------------ MachineGen

MachineGen::MachineGen(std::uint64_t seed) : rng_(seed) {}

MachineConfig MachineGen::next_machine() {
  const int clusters = static_cast<int>(
      uniform_u64(rng_, 1, static_cast<std::uint64_t>(kMaxClusters)));
  const int max_issue =
      std::min(kMaxIssuePerCluster, kMaxTotalOps / clusters);

  MachineConfig m;
  if (clusters >= 2 && rng_.next_bool(0.25)) {
    // Heterogeneous machine: every cluster draws its own width (standard
    // capability layout for that width), and some clusters lose their
    // multiplier entirely — the capability only has to exist somewhere.
    std::array<ClusterShape, kMaxClusters> shapes{};
    for (int c = 0; c < clusters; ++c) {
      const int w = static_cast<int>(
          uniform_u64(rng_, 1, static_cast<std::uint64_t>(max_issue)));
      ClusterShape& s = shapes[static_cast<std::size_t>(c)];
      s = ClusterShape::standard(w);
      if (rng_.next_bool(0.2)) s.mul_slot_mask = 0;
    }
    bool any_mul = false;
    for (int c = 0; c < clusters; ++c)
      any_mul = any_mul || shapes[static_cast<std::size_t>(c)]
                                   .mul_slot_mask != 0;
    if (!any_mul)
      shapes[0].mul_slot_mask =
          ClusterShape::standard(shapes[0].issue_width).mul_slot_mask;
    m = MachineConfig::heterogeneous_of(shapes.data(), clusters);
  } else {
    const int issue = static_cast<int>(
        uniform_u64(rng_, 1, static_cast<std::uint64_t>(max_issue)));
    m = MachineConfig::clustered(clusters, issue);
  }
  m.mul_latency = static_cast<int>(uniform_u64(rng_, 1, 3));
  m.mem_latency = static_cast<int>(uniform_u64(rng_, 1, 3));
  m.taken_branch_penalty = static_cast<int>(uniform_u64(rng_, 0, 3));
  m.validate();
  return m;
}

MemorySystemConfig MachineGen::next_memory() {
  const auto random_cache = [&](CacheConfig& c) {
    c.size_bytes = std::uint64_t{1} << uniform_u64(rng_, 12, 16);
    c.line_bytes = rng_.next_bool(0.5) ? 32 : 64;
    c.ways = std::uint32_t{1} << uniform_u64(rng_, 0, 2);
    c.miss_penalty = static_cast<int>(uniform_u64(rng_, 5, 40));
    c.validate();
  };
  MemorySystemConfig mem;
  random_cache(mem.icache);
  random_cache(mem.dcache);
  mem.sharing =
      rng_.next_bool(0.7) ? CacheSharing::kShared : CacheSharing::kPrivate;
  mem.perfect = rng_.next_bool(0.1);
  // New hierarchy axes: a unified L2 behind the L1s, and a banked DCache.
  // Both default off so the paper's flat machines stay the common case.
  if (rng_.next_bool(0.3)) {
    mem.has_l2 = true;
    mem.l2.size_bytes = std::uint64_t{1} << uniform_u64(rng_, 15, 18);
    mem.l2.line_bytes = mem.dcache.line_bytes;
    mem.l2.ways = std::uint32_t{1} << uniform_u64(rng_, 1, 3);
    mem.l2.miss_penalty = static_cast<int>(uniform_u64(rng_, 20, 120));
  }
  if (rng_.next_bool(0.5)) {
    mem.dcache_banks = 1 << uniform_u64(rng_, 1, 3);
    mem.bank_conflict_penalty = static_cast<int>(uniform_u64(rng_, 1, 4));
  }
  mem.validate();
  return mem;
}

// ---------------------------------------------------------- generate_case

FuzzCase generate_case(std::uint64_t seed) {
  SplitMix64 sm(seed);
  SchemeGen scheme_gen(sm.next());
  WorkloadGen workload_gen(sm.next());
  MachineGen machine_gen(sm.next());
  Xoshiro256 rng(sm.next());

  FuzzCase c;
  c.label = "seed-" + std::to_string(seed);
  c.seed = seed;

  const Scheme scheme = scheme_gen.next();
  c.scheme = scheme.canonical();
  c.sim.machine = machine_gen.next_machine();
  c.sim.mem = machine_gen.next_memory();

  // Software thread count: usually the hardware context count, sometimes
  // fewer (idle slots) or more (the OS timeslices the surplus).
  const int hw = scheme.num_threads();
  int sw = hw;
  const std::uint64_t dice = rng.next_below(10);
  if (dice < 2) {
    sw = static_cast<int>(
        uniform_u64(rng, 1, static_cast<std::uint64_t>(hw)));
  } else if (dice < 5) {
    sw = hw + static_cast<int>(uniform_u64(rng, 1, 4));
  }
  for (int t = 0; t < sw; ++t)
    c.profiles.push_back(workload_gen.next("fz" + std::to_string(t)));

  c.sim.priority = static_cast<PriorityPolicy>(rng.next_below(3));
  c.sim.miss_policy = static_cast<MissPolicy>(rng.next_below(2));
  c.sim.timeslice_cycles = uniform_u64(rng, 64, 1500);
  c.sim.instruction_budget = uniform_u64(rng, 300, 2500);
  // Generous but finite guard: a wedged case terminates (and fails its
  // oracle with comparable, deterministic counters) instead of hanging.
  c.sim.max_cycles = std::uint64_t{1} << 22;
  c.sim.os_seed = rng.next();
  c.sim.stream_seed_base = rng.next();
  c.sim.switch_policy = static_cast<SwitchPolicyKind>(rng.next_below(3));
  return c;
}

}  // namespace cvmt
