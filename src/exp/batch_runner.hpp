// Parallel batch experiment runner: fans independent (scheme, programs,
// SimConfig) jobs out over the process-wide WorkerPool. Results are
// bit-identical to running the same jobs serially in order, regardless of
// worker count or completion order, because no job shares mutable state
// with another: every job's randomness comes from seeds inside its own
// SimConfig, compiled artifacts (merge plans, programs) come from the
// thread-safe ArtifactCache and are immutable once built, and each result
// is written to its own pre-allocated slot. Each job runs on its worker's
// SimSession, which takes the job's merge plan and workload from the
// shared cache and builds the job's run state fresh. Every experiment
// runner runs its grid through run_batch, so every grid point goes
// through the store when one is set.
//
// Jobs whose schemes make the same merge decision on every cycle (equal
// MergePlan::signature, e.g. C4 and 3CCC) and whose other inputs all
// match simulate once per batch under StatsLevel::kFast: the other jobs
// of such a group take the first job's result under their own name and
// stats template (DESIGN.md §14).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace cvmt {

class SweepStore;

/// One independent simulation job. `benchmarks` are Table 1 names, one
/// per software thread (a Table 2 workload row contributes its four).
struct BatchJob {
  Scheme scheme = Scheme::single_thread();
  std::vector<std::string> benchmarks;
  SimConfig sim;
};

/// Builds the job for one Table 2 workload row.
[[nodiscard]] BatchJob make_job(const Scheme& scheme,
                                const Workload& workload,
                                const SimConfig& sim);

struct BatchOptions {
  /// At most this many of the pool's threads (0 = all of them, one per
  /// core). A batch started on a pool worker, such as a serve request's,
  /// runs inline on that worker whatever the value. The --workers flag is
  /// applied by ExperimentParams::resolve, not here.
  unsigned workers = 0;
  /// When set, every job is mediated by the on-disk result store
  /// (src/store/sweep_store.hpp): points outside the store's shard are
  /// skipped (their results default-constructed), already-stored points
  /// are served from the logs without simulating, and fresh results are
  /// appended before they return. Not owned; must outlive the run_batch
  /// call.
  SweepStore* store = nullptr;
};

/// Runs all jobs and returns their results in job order.
[[nodiscard]] std::vector<SimResult> run_batch(std::span<const BatchJob> jobs,
                                               const BatchOptions& opts = {});

/// Convenience: the IPC of each job, in job order.
[[nodiscard]] std::vector<double> run_batch_ipc(std::span<const BatchJob> jobs,
                                                const BatchOptions& opts = {});

/// Averages `values` into one mean per group of `group_size` consecutive
/// entries. Inverse of the flattening the experiment sweeps use (job
/// g*group_size + i belongs to group g), so a sweep's per-scheme averages
/// are `group_averages(run_batch_ipc(jobs), workloads.size())`.
[[nodiscard]] std::vector<double> group_averages(
    std::span<const double> values, std::size_t group_size);

}  // namespace cvmt
