// Differential oracles over one FuzzCase: the same case is run through
// every hot-path configuration the repo claims is bit-identical —
//
//   baseline   plan evaluator + stall fast-forward + full stats
//   tree       recursive tree-reference evaluator, cycle-stepped
//   stepped    plan evaluator with the fast-forward disabled
//   faststats  StatsLevel::kFast (merge counters intentionally zeroed)
//   replay     the baseline run again (determinism)
//
// and every SimResult field must agree (faststats: every shared field
// agrees AND the merge counters are verifiably zeroed). Each run goes
// through run_simulation over one merge plan, on run state built fresh.
// This turns each future hot-path optimization into one more row here
// instead of a bespoke golden test.
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

/// Compares two results over every field the result store writes
/// (sim_result_to_json), as a diff of the two encodings. Returns an empty
/// string when identical, otherwise "path: a != b" for the first
/// difference, e.g. "cycles: 1200 != 1199" or "threads[2].stats.bubbles:
/// 7 != 8" (an array length reads "threads.size: 3 != 4").
/// `compare_merge_stats` false skips the issued histogram and the
/// merge-node counters (the kFast contract zeroes them on purpose); the
/// node labels and kinds are still compared.
[[nodiscard]] std::string compare_sim_results(const SimResult& a,
                                              const SimResult& b,
                                              bool compare_merge_stats);

/// Runs every oracle over `c`, with the case's programs and merge plan
/// built through `artifacts` (keyed by full profile content + machine).
/// All simulation configurations share them (both are immutable); each
/// builds its own run state. A run costs five small simulations. The
/// shrinker passes one cache for all its attempts: its candidates mutate
/// budgets, machine shape and the scheme far more often than the
/// profiles, so consecutive attempts on one failing case mostly hit the
/// cache instead of rebuilding every program.
[[nodiscard]] OracleReport run_oracles(const FuzzCase& c,
                                       ArtifactCache& artifacts);

/// Same, on a fresh cache of its own, so nothing is kept across cases.
[[nodiscard]] OracleReport run_oracles(const FuzzCase& c);

}  // namespace cvmt
