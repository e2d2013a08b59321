// The `cvmt fuzz` sweep: replay a corpus, generate N seeded cases, run
// the differential oracles over every case (fanned across the process-
// wide WorkerPool; outcomes land in per-case slots so the sweep is
// bit-identical for any worker count), optionally shrink failures to
// minimal repros and persist them as JSON corpus files.
//
// run_fuzz_sweep is the testable core (tests/fuzz_test.cpp calls it
// directly); fuzz_main is the CLI entry the cvmt driver dispatches
// `cvmt fuzz` to, the sweep's one entry point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/dataset.hpp"
#include "testgen/oracle.hpp"
#include "testgen/shrink.hpp"

namespace cvmt {

struct FuzzOptions {
  std::uint64_t cases = 200;  ///< generated cases (corpus replays extra)
  std::uint64_t seed = 1;     ///< sweep seed; case i uses the i-th
                              ///< SplitMix64 draw of this seed
  unsigned workers = 0;       ///< pool threads to use, 0 = all
  bool shrink = false;        ///< minimize failures before reporting
  std::string corpus_dir;     ///< replayed before generation when set
  std::string save_dir;       ///< failing (shrunk) repros land here
  bool save_all = false;      ///< persist every case (corpus seeding)
};

struct FuzzOutcome {
  FuzzCase c;
  OracleReport report;
  bool from_corpus = false;
  /// Valid when the case failed and shrinking ran; minimized_report is
  /// the minimized case's own oracle outcome (computed once, at shrink
  /// time).
  bool shrunk = false;
  FuzzCase minimized;
  OracleReport minimized_report;
  int shrink_attempts = 0;
};

struct FuzzSweepResult {
  std::vector<FuzzOutcome> outcomes;  ///< corpus replays first, then seeds
  std::size_t corpus_cases = 0;
  std::size_t failures = 0;

  /// Sweep totals as a Dataset (deterministic; worker-count invariant).
  [[nodiscard]] Dataset summary() const;
  /// One row per failure: label, failed oracle, mismatch, case summary.
  [[nodiscard]] Dataset failure_table() const;
};

[[nodiscard]] FuzzSweepResult run_fuzz_sweep(const FuzzOptions& options);

/// `cvmt fuzz [--cases=N] [--seed=S] [--shrink] [--workers=N]
///            [--corpus=DIR] [--save=DIR] [--save-all] [--case=FILE]`.
/// Exit 0 when every oracle passed, 1 on failures, 2 on usage errors.
[[nodiscard]] int fuzz_main(int argc, const char* const* argv);

}  // namespace cvmt
