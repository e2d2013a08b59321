// Differential oracles over one FuzzCase: the same case is run through
// every hot-path configuration the repo claims is bit-identical —
//
//   baseline   plan evaluator + stall fast-forward + full stats
//   tree       recursive tree-reference evaluator, cycle-stepped
//   stepped    plan evaluator with the fast-forward disabled
//   faststats  StatsLevel::kFast (merge counters intentionally zeroed)
//   replay     the baseline re-run from scratch (determinism)
//
// and every SimResult counter must agree (faststats: every shared field
// agrees AND the merge counters are verifiably zeroed). This turns each
// future hot-path optimization into one more row here instead of a
// bespoke golden test.
#pragma once

#include <string>
#include <vector>

#include "testgen/fuzz_case.hpp"

namespace cvmt {

class ArtifactCache;

/// Outcome of one oracle run over one case.
struct OracleReport {
  bool ok = true;
  /// run_simulation invocations this oracle run actually performed (a
  /// failing run early-returns after the first mismatching oracle).
  int simulations = 0;
  /// Which configuration pair disagreed, e.g. "baseline-vs-tree".
  std::string failed_oracle;
  /// First mismatching counter, with both values, e.g.
  /// "cycles: 1200 != 1199".
  std::string mismatch;
  /// Set when the case could not even be constructed/run (CheckError from
  /// scheme parsing, program building or the simulator itself).
  std::string construction_error;

  [[nodiscard]] std::string to_string() const;
};

/// Field-by-field comparison of two results. Returns an empty string when
/// identical, otherwise "field: a != b" for the first difference.
/// `compare_merge_stats` false skips the histogram and merge-node counters
/// (the kFast contract zeroes them on purpose).
[[nodiscard]] std::string compare_sim_results(const SimResult& a,
                                              const SimResult& b,
                                              bool compare_merge_stats);

/// Runs every oracle over `c`. All simulation configurations share the
/// case's programs (built once — SyntheticProgram is immutable) and one
/// reusable SimInstance (compiled once, reset between configurations);
/// the replay oracle re-runs through the one-shot run_simulation facade,
/// so instance reuse itself is cross-checked on every case. A run costs
/// five small simulations.
[[nodiscard]] OracleReport run_oracles(const FuzzCase& c);

/// run_oracles with the case's programs materialized through `artifacts`
/// (keyed by full profile content + machine). The shrinker uses this: its
/// candidates mutate budgets, machine shape and the scheme far more often
/// than the profiles, so consecutive attempts on one failing case mostly
/// hit the cache instead of rebuilding every program.
[[nodiscard]] OracleReport run_oracles(const FuzzCase& c,
                                       ArtifactCache& artifacts);

}  // namespace cvmt
