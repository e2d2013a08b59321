#include "testgen/oracle.hpp"

#include <sstream>

#include "sim/session.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

/// Formats one counter mismatch ("what[i]: a != b").
template <typename T>
std::string diff(const std::string& what, const T& a, const T& b) {
  std::ostringstream os;
  os << what << ": " << a << " != " << b;
  return os.str();
}

/// The case's programs, through `artifacts` when provided (profile-content
/// keyed, so repeated builds of an unchanged profile are cache hits).
std::vector<std::shared_ptr<const SyntheticProgram>> case_programs(
    const FuzzCase& c, ArtifactCache* artifacts) {
  if (artifacts == nullptr) return c.build_programs();
  CVMT_CHECK_MSG(!c.profiles.empty(), "fuzz case has no software threads");
  std::vector<std::shared_ptr<const SyntheticProgram>> programs;
  programs.reserve(c.profiles.size());
  for (const BenchmarkProfile& p : c.profiles)
    programs.push_back(artifacts->program(p, c.sim.machine));
  return programs;
}

}  // namespace

std::string compare_sim_results(const SimResult& a, const SimResult& b,
                                bool compare_merge_stats) {
  if (a.scheme != b.scheme) return diff("scheme", a.scheme, b.scheme);
  if (a.cycles != b.cycles) return diff("cycles", a.cycles, b.cycles);
  if (a.total_ops != b.total_ops)
    return diff("total_ops", a.total_ops, b.total_ops);
  if (a.total_instructions != b.total_instructions)
    return diff("total_instructions", a.total_instructions,
                b.total_instructions);
  if (a.idle_cycles != b.idle_cycles)
    return diff("idle_cycles", a.idle_cycles, b.idle_cycles);
  if (a.ipc != b.ipc) return diff("ipc", a.ipc, b.ipc);
  if (a.threads.size() != b.threads.size())
    return diff("threads.size", a.threads.size(), b.threads.size());
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    const ThreadResult& ta = a.threads[t];
    const ThreadResult& tb = b.threads[t];
    const std::string at = "threads[" + std::to_string(t) + "].";
    if (ta.benchmark != tb.benchmark)
      return diff(at + "benchmark", ta.benchmark, tb.benchmark);
    if (ta.instructions != tb.instructions)
      return diff(at + "instructions", ta.instructions, tb.instructions);
    if (ta.ops != tb.ops) return diff(at + "ops", ta.ops, tb.ops);
    if (ta.stats.instructions != tb.stats.instructions)
      return diff(at + "stats.instructions", ta.stats.instructions,
                  tb.stats.instructions);
    if (ta.stats.bubbles != tb.stats.bubbles)
      return diff(at + "stats.bubbles", ta.stats.bubbles, tb.stats.bubbles);
    if (ta.stats.ops != tb.stats.ops)
      return diff(at + "stats.ops", ta.stats.ops, tb.stats.ops);
    if (ta.stats.taken_branches != tb.stats.taken_branches)
      return diff(at + "stats.taken_branches", ta.stats.taken_branches,
                  tb.stats.taken_branches);
    if (ta.stats.dcache_stall_cycles != tb.stats.dcache_stall_cycles)
      return diff(at + "stats.dcache_stall_cycles",
                  ta.stats.dcache_stall_cycles,
                  tb.stats.dcache_stall_cycles);
    if (ta.stats.icache_stall_cycles != tb.stats.icache_stall_cycles)
      return diff(at + "stats.icache_stall_cycles",
                  ta.stats.icache_stall_cycles,
                  tb.stats.icache_stall_cycles);
    if (ta.stats.branch_stall_cycles != tb.stats.branch_stall_cycles)
      return diff(at + "stats.branch_stall_cycles",
                  ta.stats.branch_stall_cycles,
                  tb.stats.branch_stall_cycles);
    if (ta.stats.bank_conflict_cycles != tb.stats.bank_conflict_cycles)
      return diff(at + "stats.bank_conflict_cycles",
                  ta.stats.bank_conflict_cycles,
                  tb.stats.bank_conflict_cycles);
  }
  if (a.icache.hits != b.icache.hits)
    return diff("icache.hits", a.icache.hits, b.icache.hits);
  if (a.icache.total != b.icache.total)
    return diff("icache.total", a.icache.total, b.icache.total);
  if (a.dcache.hits != b.dcache.hits)
    return diff("dcache.hits", a.dcache.hits, b.dcache.hits);
  if (a.dcache.total != b.dcache.total)
    return diff("dcache.total", a.dcache.total, b.dcache.total);
  if (a.l2.hits != b.l2.hits) return diff("l2.hits", a.l2.hits, b.l2.hits);
  if (a.l2.total != b.l2.total)
    return diff("l2.total", a.l2.total, b.l2.total);
  if (a.os.context_switches != b.os.context_switches)
    return diff("os.context_switches", a.os.context_switches,
                b.os.context_switches);
  if (a.os.timeslices != b.os.timeslices)
    return diff("os.timeslices", a.os.timeslices, b.os.timeslices);
  if (!compare_merge_stats) return {};

  if (a.issued_per_cycle.num_buckets() != b.issued_per_cycle.num_buckets())
    return diff("issued_per_cycle.num_buckets",
                a.issued_per_cycle.num_buckets(),
                b.issued_per_cycle.num_buckets());
  for (std::size_t k = 0; k < a.issued_per_cycle.num_buckets(); ++k)
    if (a.issued_per_cycle.bucket(k) != b.issued_per_cycle.bucket(k))
      return diff("issued_per_cycle[" + std::to_string(k) + "]",
                  a.issued_per_cycle.bucket(k), b.issued_per_cycle.bucket(k));
  if (a.merge_nodes.size() != b.merge_nodes.size())
    return diff("merge_nodes.size", a.merge_nodes.size(),
                b.merge_nodes.size());
  for (std::size_t i = 0; i < a.merge_nodes.size(); ++i) {
    const std::string at = "merge_nodes[" + std::to_string(i) + "].";
    if (a.merge_nodes[i].label != b.merge_nodes[i].label)
      return diff(at + "label", a.merge_nodes[i].label,
                  b.merge_nodes[i].label);
    if (a.merge_nodes[i].attempts != b.merge_nodes[i].attempts)
      return diff(at + "attempts", a.merge_nodes[i].attempts,
                  b.merge_nodes[i].attempts);
    if (a.merge_nodes[i].rejects != b.merge_nodes[i].rejects)
      return diff(at + "rejects", a.merge_nodes[i].rejects,
                  b.merge_nodes[i].rejects);
  }
  return {};
}

std::string OracleReport::to_string() const {
  if (ok) return "ok";
  if (!construction_error.empty())
    return "construction failed: " + construction_error;
  return failed_oracle + ": " + mismatch;
}

namespace {

OracleReport run_oracles_impl(const FuzzCase& c, ArtifactCache* artifacts) {
  OracleReport report;
  try {
    const Scheme scheme = c.parse_scheme();
    const std::vector<std::shared_ptr<const SyntheticProgram>> programs =
        case_programs(c, artifacts);

    const std::shared_ptr<const CompiledScheme> compiled =
        artifacts != nullptr
            ? artifacts->scheme(scheme, c.sim.machine)
            : std::make_shared<const CompiledScheme>(scheme, c.sim.machine);

    SimConfig baseline_cfg = c.sim;
    baseline_cfg.stats = StatsLevel::kFull;
    baseline_cfg.eval_mode = EvalMode::kPlan;
    baseline_cfg.stall_fast_forward = true;

    // All sweep configurations share one SimInstance: the scheme is
    // compiled once and the run state is reset in place between
    // configurations. This exercises the session layer's reuse contract
    // (mixed stats levels and eval modes on one instance) on every fuzz
    // case; the replay oracle below closes the loop against the
    // fresh-construction facade.
    SimInstance instance(compiled, baseline_cfg);
    const SimResult baseline = instance.run(programs);
    ++report.simulations;

    // Shared bookkeeping of every oracle: count the simulation, compare
    // against the baseline, record the first failure.
    const auto record = [&](const char* name, const SimResult& result,
                            bool compare_merge_stats) {
      ++report.simulations;
      const std::string mismatch =
          compare_sim_results(baseline, result, compare_merge_stats);
      if (!mismatch.empty() && report.ok) {
        report.ok = false;
        report.failed_oracle = name;
        report.mismatch = mismatch;
      }
    };
    const auto check = [&](const char* name, const SimConfig& cfg,
                           bool compare_merge_stats) -> SimResult {
      instance.set_config(cfg);
      SimResult result = instance.run(programs);
      record(name, result, compare_merge_stats);
      return result;
    };

    // Oracle 1: the recursive tree-reference evaluator, cycle-stepped.
    SimConfig tree_cfg = baseline_cfg;
    tree_cfg.eval_mode = EvalMode::kTreeReference;
    tree_cfg.stall_fast_forward = false;
    check("baseline-vs-tree", tree_cfg, /*compare_merge_stats=*/true);
    if (!report.ok) return report;

    // Oracle 2: the plan evaluator with fast-forward disabled.
    SimConfig stepped_cfg = baseline_cfg;
    stepped_cfg.stall_fast_forward = false;
    check("baseline-vs-stepped", stepped_cfg, /*compare_merge_stats=*/true);
    if (!report.ok) return report;

    // Oracle 3: fast stats agree on every shared field and verifiably
    // skip the merge counters.
    SimConfig fast_cfg = baseline_cfg;
    fast_cfg.stats = StatsLevel::kFast;
    const SimResult fast = check("baseline-vs-faststats", fast_cfg,
                                 /*compare_merge_stats=*/false);
    if (!report.ok) return report;
    if (fast.issued_per_cycle.total() != 0) {
      report.ok = false;
      report.failed_oracle = "faststats-zeroing";
      report.mismatch =
          "issued_per_cycle histogram moved under StatsLevel::kFast";
      return report;
    }
    for (const MergeNodeStats& node : fast.merge_nodes) {
      if (node.attempts != 0 || node.rejects != 0) {
        report.ok = false;
        report.failed_oracle = "faststats-zeroing";
        report.mismatch =
            "merge counter moved under StatsLevel::kFast (" + node.label +
            ")";
        return report;
      }
      if (node.label.empty()) {
        report.ok = false;
        report.failed_oracle = "faststats-zeroing";
        report.mismatch = "merge-node label lost under StatsLevel::kFast";
        return report;
      }
    }

    // Oracle 4: a fresh identical run reproduces bit-identically. This
    // one deliberately bypasses the shared instance and goes through the
    // one-shot run_simulation facade, so it checks determinism AND that
    // instance reuse (oracles 1-3 reset the same instance) never diverges
    // from fresh construction.
    record("baseline-vs-replay",
           run_simulation(scheme, programs, baseline_cfg),
           /*compare_merge_stats=*/true);
  } catch (const CheckError& e) {
    report.ok = false;
    report.construction_error = e.what();
  }
  return report;
}

}  // namespace

OracleReport run_oracles(const FuzzCase& c) {
  return run_oracles_impl(c, nullptr);
}

OracleReport run_oracles(const FuzzCase& c, ArtifactCache& artifacts) {
  return run_oracles_impl(c, &artifacts);
}

}  // namespace cvmt
