#include "sim/session.hpp"

#include <bit>
#include <utility>

#include "support/check.hpp"

namespace cvmt {
namespace {

// --- canonical cache keys -------------------------------------------------
// Keys are exact: integers in decimal, doubles by bit pattern (two profiles
// differing in the last ulp are different artifacts — cheaper and safer
// than deciding a tolerance).

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ',';
}

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
  out += ',';
}

void append_double(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

void append_machine_key(std::string& out, const MachineConfig& m) {
  const ClusterShape flat = m.flat_shape();
  append_i64(out, m.num_clusters);
  append_i64(out, flat.issue_width);
  append_u64(out, flat.mul_slot_mask);
  append_u64(out, flat.mem_slot_mask);
  append_u64(out, flat.branch_slot_mask);
  append_i64(out, m.alu_latency);
  append_i64(out, m.mul_latency);
  append_i64(out, m.mem_latency);
  append_i64(out, m.taken_branch_penalty);
  // A machine that is not uniform extends the key with every cluster's
  // shape; uniform machines keep the exact legacy key bytes.
  if (!m.uniform()) {
    out += "het:";
    for (const ClusterShape& s : m.clusters()) {
      append_i64(out, s.issue_width);
      append_u64(out, s.mul_slot_mask);
      append_u64(out, s.mem_slot_mask);
      append_u64(out, s.branch_slot_mask);
    }
  }
}

namespace {

std::string profile_program_key(const BenchmarkProfile& p,
                                const MachineConfig& machine) {
  std::string key = "P|";
  key += p.name;
  key += '|';
  key += to_char(p.ilp);
  key += '|';
  append_double(key, p.target_ipc_real);
  append_double(key, p.target_ipc_perfect);
  append_i64(key, p.num_loops);
  append_double(key, p.mean_body_instrs);
  append_double(key, p.mean_trip_count);
  append_double(key, p.mean_ops_per_instr);
  append_double(key, p.mem_op_frac);
  append_double(key, p.store_frac);
  append_double(key, p.mul_op_frac);
  append_double(key, p.mid_branch_frac);
  append_double(key, p.mid_branch_taken);
  append_double(key, p.ops_per_cluster_target);
  append_u64(key, p.hot_bytes);
  append_u64(key, p.hot_stride);
  append_i64(key, p.assumed_miss_penalty);
  append_u64(key, p.code_bytes_per_instr);
  append_u64(key, p.seed);
  key += '@';
  append_machine_key(key, machine);
  return key;
}

}  // namespace

std::string scheme_key(const Scheme& scheme, const MachineConfig& machine) {
  // The display name is keyed alongside the canonical tree: SimResult
  // carries the name, so "3SCC" and a functionally identical
  // "C(C(S(0,1),2),3)" must not share one artifact.
  std::string key = "S|";
  key += scheme.name();
  key += '|';
  key += scheme.canonical();
  key += '@';
  append_machine_key(key, machine);
  return key;
}

// --- ArtifactCache --------------------------------------------------------

template <typename T, typename Builder>
std::shared_ptr<const T> ArtifactCache::lookup_or_build(
    SlotMap<T>& entries, const std::string& key, std::uint64_t* hits,
    std::uint64_t* misses, Builder&& build) {
  std::shared_ptr<Slot<T>> slot;
  std::promise<std::shared_ptr<const T>> promise;
  std::function<void(std::string_view)> hook;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = entries.find(key); it != entries.end()) {
      ++*hits;
      slot = it->second;
    } else {
      ++*misses;
      builder = true;
      slot = std::make_shared<Slot<T>>();
      slot->future = promise.get_future().share();
      entries.emplace(key, slot);
      hook = build_hook_;
    }
  }
  if (!builder) return slot->future.get();  // waits on an in-flight build

  // Build outside the cache mutex: misses on *other* keys proceed in
  // parallel; misses on this key block on the future installed above.
  try {
    if (hook) hook(key);
    std::shared_ptr<const T> built = build();
    promise.set_value(built);
    return built;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    // Evict only our own slot — a clear() may have dropped it already
    // and a successor entry must not be collateral damage.
    if (auto it = entries.find(key);
        it != entries.end() && it->second == slot)
      entries.erase(it);
    throw;
  }
}

std::shared_ptr<const MergePlan> ArtifactCache::scheme(
    const Scheme& scheme, const MachineConfig& machine) {
  const std::string key = scheme_key(scheme, machine);
  return lookup_or_build(schemes_, key, &stats_.scheme_hits,
                         &stats_.scheme_misses, [&] {
                           return std::make_shared<const MergePlan>(scheme,
                                                                    machine);
                         });
}

std::shared_ptr<const SyntheticProgram> ArtifactCache::program(
    const BenchmarkProfile& profile, const MachineConfig& machine) {
  const std::string key = profile_program_key(profile, machine);
  return lookup_or_build(programs_, key, &stats_.program_hits,
                         &stats_.program_misses, [&] {
                           return std::make_shared<const SyntheticProgram>(
                               profile, machine);
                         });
}

std::shared_ptr<const SyntheticProgram> ArtifactCache::program(
    std::string_view benchmark, const MachineConfig& machine) {
  return program(profile_by_name(benchmark), machine);
}

std::shared_ptr<const CompiledWorkload> ArtifactCache::workload(
    std::span<const std::string> benchmarks, const MachineConfig& machine) {
  std::string key = "W|";
  for (const std::string& b : benchmarks) {
    key += b;
    key += ',';
  }
  key += '@';
  append_machine_key(key, machine);

  // The workload build pulls its member programs through program(), so a
  // cold workload's programs build under their own per-key locks — two
  // cold workloads sharing a program share its one build too.
  return lookup_or_build(
      workloads_, key, &stats_.workload_hits, &stats_.workload_misses,
      [&]() -> std::shared_ptr<const CompiledWorkload> {
        auto compiled = std::make_shared<CompiledWorkload>();
        compiled->programs.reserve(benchmarks.size());
        for (const std::string& b : benchmarks)
          compiled->programs.push_back(program(b, machine));
        return compiled;
      });
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  schemes_.clear();
  programs_.clear();
  workloads_.clear();
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schemes_.size() + programs_.size() + workloads_.size();
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::set_build_hook(
    std::function<void(std::string_view)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  build_hook_ = std::move(hook);
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache cache;
  return cache;
}

// --- SimSession -----------------------------------------------------------

SimResult SimSession::run(
    const Scheme& scheme,
    std::span<const std::shared_ptr<const SyntheticProgram>> programs,
    const SimConfig& config) {
  return run_simulation(artifacts_.scheme(scheme, config.machine), programs,
                        config);
}

SimResult SimSession::run(const Scheme& scheme,
                          std::span<const std::string> benchmarks,
                          const SimConfig& config) {
  const std::shared_ptr<const CompiledWorkload> workload =
      artifacts_.workload(benchmarks, config.machine);
  return run_simulation(artifacts_.scheme(scheme, config.machine),
                        workload->programs, config);
}

}  // namespace cvmt
