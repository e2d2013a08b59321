#include "testgen/oracle.hpp"

#include <sstream>

#include "sim/session.hpp"
#include "store/result_store.hpp"
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

/// The case's programs through `artifacts` (profile-content keyed, so
/// repeated builds of an unchanged profile are cache hits).
std::vector<std::shared_ptr<const SyntheticProgram>> case_programs(
    const FuzzCase& c, ArtifactCache& artifacts) {
  CVMT_CHECK_MSG(!c.profiles.empty(), "fuzz case has no software threads");
  std::vector<std::shared_ptr<const SyntheticProgram>> programs;
  programs.reserve(c.profiles.size());
  for (const BenchmarkProfile& p : c.profiles)
    programs.push_back(artifacts.program(p, c.sim.machine));
  return programs;
}

/// The first difference between two encodings of a SimResult, as
/// "path: a != b" (an array length as "path.size: a != b"), or "" when
/// they are equal. Both come from sim_result_to_json, so they hold the
/// same keys in the same order.
std::string first_difference(const JsonValue& a, const JsonValue& b,
                             const std::string& path) {
  if (a.kind() == JsonValue::Kind::kArray) {
    if (a.size() != b.size()) return diff(path + ".size", a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::string d = first_difference(a.at(i), b.at(i),
                                        path + "[" + std::to_string(i) + "]");
      if (!d.empty()) return d;
    }
    return {};
  }
  if (a.kind() == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : a.members()) {
      std::string d = first_difference(value, b.get(key),
                                        path.empty() ? key : path + "." + key);
      if (!d.empty()) return d;
    }
    return {};
  }
  if (a.dump(-1) == b.dump(-1)) return {};
  // Strings print bare, so a scheme mismatch reads "scheme: 2SC3 != 3SCC".
  const auto text = [](const JsonValue& v) {
    return v.kind() == JsonValue::Kind::kString ? v.as_string() : v.dump(-1);
  };
  return diff(path, text(a), text(b));
}

/// `r` with the counters StatsLevel::kFast leaves at zero zeroed: the
/// issued histogram and the merge-node attempts and rejects. The node
/// labels and kinds stay, since both levels fill them.
SimResult without_merge_counters(SimResult r) {
  r.issued_per_cycle = Histogram(r.issued_per_cycle.num_buckets());
  for (MergeNodeStats& node : r.merge_nodes) node.attempts = node.rejects = 0;
  return r;
}

}  // namespace

std::string compare_sim_results(const SimResult& a, const SimResult& b,
                                bool compare_merge_stats) {
  if (compare_merge_stats)
    return first_difference(sim_result_to_json(a), sim_result_to_json(b),
                            "");
  return first_difference(sim_result_to_json(without_merge_counters(a)),
                          sim_result_to_json(without_merge_counters(b)), "");
}

std::string OracleReport::to_string() const {
  if (ok) return "ok";
  if (!construction_error.empty())
    return "construction failed: " + construction_error;
  return failed_oracle + ": " + mismatch;
}

OracleReport run_oracles(const FuzzCase& c) {
  ArtifactCache artifacts;
  return run_oracles(c, artifacts);
}

OracleReport run_oracles(const FuzzCase& c, ArtifactCache& artifacts) {
  OracleReport report;
  try {
    const Scheme scheme = c.parse_scheme();
    const std::vector<std::shared_ptr<const SyntheticProgram>> programs =
        case_programs(c, artifacts);
    const std::shared_ptr<const MergePlan> plan =
        artifacts.scheme(scheme, c.sim.machine);

    SimConfig baseline_cfg = c.sim;
    baseline_cfg.stats = StatsLevel::kFull;
    baseline_cfg.eval_mode = EvalMode::kPlan;
    baseline_cfg.stall_fast_forward = true;

    // Every configuration runs the one plan and the case's programs on
    // run state built fresh by run_simulation.
    const SimResult baseline = run_simulation(plan, programs, baseline_cfg);
    ++report.simulations;

    // Shared bookkeeping of every oracle: count the simulation, compare
    // against the baseline, record the first failure.
    const auto check = [&](const char* name, const SimConfig& cfg,
                           bool compare_merge_stats) -> SimResult {
      SimResult result = run_simulation(plan, programs, cfg);
      ++report.simulations;
      const std::string mismatch =
          compare_sim_results(baseline, result, compare_merge_stats);
      if (!mismatch.empty() && report.ok) {
        report.ok = false;
        report.failed_oracle = name;
        report.mismatch = mismatch;
      }
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

    // Oracle 4: determinism. The baseline configuration, run again,
    // reproduces every field.
    check("baseline-vs-replay", baseline_cfg, /*compare_merge_stats=*/true);
  } catch (const CheckError& e) {
    report.ok = false;
    report.construction_error = e.what();
  }
  return report;
}

}  // namespace cvmt
